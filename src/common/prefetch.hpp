// RTD_PREFETCH(addr): a software prefetch hint for a load a few steps
// ahead, where a walk over scattered slots would otherwise wait on each
// cache miss in turn.  A no-op on compilers without the builtin.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define RTD_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define RTD_PREFETCH(addr) ((void)0)
#endif
