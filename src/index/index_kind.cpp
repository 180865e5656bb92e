#include "index/index_kind.hpp"

namespace rtd::index {

const char* to_string(IndexKind kind) {
  switch (kind) {
    case IndexKind::kAuto: return "auto";
    case IndexKind::kBruteForce: return "brute";
    case IndexKind::kGrid: return "grid";
    case IndexKind::kDenseBox: return "densebox";
    case IndexKind::kPointBvh: return "pointbvh";
    case IndexKind::kBvhRt: return "bvhrt";
    case IndexKind::kTriangles: return "triangles";
  }
  return "?";
}

std::optional<IndexKind> parse_index_kind(std::string_view name) {
  if (name == "auto") return IndexKind::kAuto;
  if (name == "brute" || name == "bruteforce") return IndexKind::kBruteForce;
  if (name == "grid") return IndexKind::kGrid;
  if (name == "densebox") return IndexKind::kDenseBox;
  if (name == "pointbvh") return IndexKind::kPointBvh;
  if (name == "bvhrt" || name == "rt") return IndexKind::kBvhRt;
  if (name == "triangles") return IndexKind::kTriangles;
  return std::nullopt;
}

}  // namespace rtd::index
