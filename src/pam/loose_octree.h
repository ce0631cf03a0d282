// SimSpatial — Loose Octree.
//
// §3.2: "Other extensions avoid replication by increasing the size of the
// partitions (e.g., loose Octree). Bigger partitions ... however, introduce
// substantial overlap and therefore increase unnecessary child traversals."
//
// Every element is stored exactly once: at the finest level whose cell size
// covers its largest extent, in the cell of its centre. With looseness
// factor 2, that cell's *loose* bounds (the cell inflated by half a cell on
// every side) are guaranteed to contain the whole element, so queries probe
// the cell range of the query inflated by half a cell per level — the
// "overlap" cost the paper mentions, measurable via counters.
//
// Levels are hash-grids rather than a pointer tree: same semantics, and
// the absence of empty intermediate nodes keeps memory proportional to the
// occupied cells. Supports O(1)-ish updates, making it a §4 competitor too.

#ifndef SIMSPATIAL_PAM_LOOSE_OCTREE_H_
#define SIMSPATIAL_PAM_LOOSE_OCTREE_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/counters.h"
#include "common/element.h"

namespace simspatial::pam {

struct LooseOctreeOptions {
  /// Number of levels; level L-1 is the finest.
  std::uint32_t levels = 8;
};

/// Loose octree over volumetric elements with single assignment.
class LooseOctree {
 public:
  LooseOctree(const AABB& universe, LooseOctreeOptions options = {});

  void Build(std::span<const Element> elements);
  void Insert(const Element& element);
  bool Erase(ElementId id);
  bool Update(ElementId id, const AABB& new_box);
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates);

  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* counters = nullptr) const;
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* counters = nullptr) const;

  std::size_t size() const { return placement_.size(); }
  std::uint32_t levels() const { return options_.levels; }
  float CellSize(std::uint32_t level) const;
  bool CheckInvariants(std::string* error) const;

 private:
  struct CellKey {
    std::uint32_t level;
    std::int32_t x;
    std::int32_t y;
    std::int32_t z;
    bool operator==(const CellKey&) const = default;
  };
  struct CellKeyHash {
    std::size_t operator()(const CellKey& k) const {
      std::uint64_t h = k.level;
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint32_t>(k.x);
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint32_t>(k.y);
      h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint32_t>(k.z);
      return static_cast<std::size_t>(h ^ (h >> 29));
    }
  };
  struct Placement {
    AABB box;
    CellKey cell;
  };

  /// Key box [lo, hi] of the cells one level has held since the last
  /// Build: grown on every placement, never shrunk (a superset still
  /// bounds the level's cells). Empty while lo > hi.
  struct KeyBox {
    CellKey lo;
    CellKey hi;
  };

  CellKey CellFor(const AABB& box) const;
  CellKey CellAt(std::uint32_t level, const Vec3& p) const;
  /// Place `id` in `key`'s cell and widen the level's key box.
  void Place(const CellKey& key, ElementId id);
  /// Forget every level's key box.
  void ResetKeyBoxes();

  AABB universe_;
  LooseOctreeOptions options_;
  float root_side_;
  std::unordered_map<CellKey, std::vector<ElementId>, CellKeyHash> cells_;
  std::unordered_map<ElementId, Placement> placement_;
  /// Per level; RangeQuery clamps each level's probed span to it, so a
  /// probe far larger than the data (a k >= n kNN cube) walks only keys
  /// that can hold an element.
  std::vector<KeyBox> key_boxes_;
};

}  // namespace simspatial::pam

#endif  // SIMSPATIAL_PAM_LOOSE_OCTREE_H_
