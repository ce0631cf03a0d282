#include "pam/loose_octree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace simspatial::pam {

namespace {
/// Saturation bound of a cell key coordinate: 2^20 cells beyond the
/// universe on either side, far outside any level's 2^levels lattice yet
/// small enough that key arithmetic cannot overflow.
constexpr std::int32_t kMaxCellCoord = std::int32_t{1} << 20;
}  // namespace

LooseOctree::LooseOctree(const AABB& universe, LooseOctreeOptions options)
    : universe_(universe), options_(options) {
  const Vec3 ext = universe.Extent();
  root_side_ = std::max({ext.x, ext.y, ext.z, 1e-6f});
  options_.levels = std::max<std::uint32_t>(1, options_.levels);
  ResetKeyBoxes();
}

void LooseOctree::ResetKeyBoxes() {
  constexpr std::int32_t kHi = std::numeric_limits<std::int32_t>::max();
  constexpr std::int32_t kLo = std::numeric_limits<std::int32_t>::min();
  key_boxes_.assign(options_.levels, KeyBox{CellKey{0, kHi, kHi, kHi},
                                            CellKey{0, kLo, kLo, kLo}});
}

void LooseOctree::Place(const CellKey& key, ElementId id) {
  cells_[key].push_back(id);
  KeyBox& b = key_boxes_[key.level];
  b.lo.x = std::min(b.lo.x, key.x);
  b.lo.y = std::min(b.lo.y, key.y);
  b.lo.z = std::min(b.lo.z, key.z);
  b.hi.x = std::max(b.hi.x, key.x);
  b.hi.y = std::max(b.hi.y, key.y);
  b.hi.z = std::max(b.hi.z, key.z);
}

float LooseOctree::CellSize(std::uint32_t level) const {
  return root_side_ / static_cast<float>(1u << level);
}

LooseOctree::CellKey LooseOctree::CellAt(std::uint32_t level,
                                         const Vec3& p) const {
  const float inv = 1.0f / CellSize(level);
  // Floor, clamped only far outside the universe: centres slightly outside
  // keep their own cells, while huge or NaN coordinates (whose int cast
  // would be undefined) saturate. Element and probe keys share this rule,
  // so a saturated element is still found by a probe that saturates too.
  const auto axis = [&](float v, float lo) {
    return ClampedCellCoord(std::floor((v - lo) * inv), -kMaxCellCoord,
                            kMaxCellCoord);
  };
  return CellKey{level, axis(p.x, universe_.min.x),
                 axis(p.y, universe_.min.y), axis(p.z, universe_.min.z)};
}

LooseOctree::CellKey LooseOctree::CellFor(const AABB& box) const {
  const Vec3 ext = box.Extent();
  const float m = std::max({ext.x, ext.y, ext.z, 0.0f});
  // Finest level whose cell size covers the element: the loose bounds (cell
  // inflated by cell/2 per side) then contain the box wherever its centre
  // lies in the cell.
  std::uint32_t level = options_.levels - 1;
  while (level > 0 && CellSize(level) < m) --level;
  return CellAt(level, box.Center());
}

void LooseOctree::Build(std::span<const Element> elements) {
  cells_.clear();
  placement_.clear();
  ResetKeyBoxes();
  placement_.reserve(elements.size());
  for (const Element& e : elements) Insert(e);
}

void LooseOctree::Insert(const Element& element) {
  assert(placement_.find(element.id) == placement_.end());
  const CellKey key = CellFor(element.box);
  Place(key, element.id);
  placement_.emplace(element.id, Placement{element.box, key});
}

bool LooseOctree::Erase(ElementId id) {
  const auto it = placement_.find(id);
  if (it == placement_.end()) return false;
  auto cell_it = cells_.find(it->second.cell);
  assert(cell_it != cells_.end());
  auto& vec = cell_it->second;
  const auto pos = std::find(vec.begin(), vec.end(), id);
  assert(pos != vec.end());
  *pos = vec.back();
  vec.pop_back();
  if (vec.empty()) cells_.erase(cell_it);
  placement_.erase(it);
  return true;
}

bool LooseOctree::Update(ElementId id, const AABB& new_box) {
  const auto it = placement_.find(id);
  if (it == placement_.end()) return false;
  const CellKey new_cell = CellFor(new_box);
  if (new_cell == it->second.cell) {
    it->second.box = new_box;  // Small move: O(1), no structural change.
    return true;
  }
  auto old_it = cells_.find(it->second.cell);
  auto& old_vec = old_it->second;
  const auto pos = std::find(old_vec.begin(), old_vec.end(), id);
  *pos = old_vec.back();
  old_vec.pop_back();
  if (old_vec.empty()) cells_.erase(old_it);
  Place(new_cell, id);
  it->second.box = new_box;
  it->second.cell = new_cell;
  return true;
}

std::size_t LooseOctree::ApplyUpdates(std::span<const ElementUpdate> updates) {
  std::size_t applied = 0;
  for (const ElementUpdate& u : updates) {
    applied += Update(u.id, u.new_box) ? 1 : 0;
  }
  return applied;
}

void LooseOctree::RangeQuery(const AABB& range, std::vector<ElementId>* out,
                             QueryCounters* counters) const {
  out->clear();
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  for (std::uint32_t level = 0; level < options_.levels; ++level) {
    // A cell can hold elements reaching half a cell beyond its bounds, so
    // the probe range is inflated by half a cell (the loose overhead).
    // The span is then clamped to the level's key box: no cell outside it
    // holds an element.
    const float half = CellSize(level) * 0.5f;
    const KeyBox& box = key_boxes_[level];
    CellKey lo = CellAt(level, range.min - Vec3(half, half, half));
    CellKey hi = CellAt(level, range.max + Vec3(half, half, half));
    lo.x = std::max(lo.x, box.lo.x);
    lo.y = std::max(lo.y, box.lo.y);
    lo.z = std::max(lo.z, box.lo.z);
    hi.x = std::min(hi.x, box.hi.x);
    hi.y = std::min(hi.y, box.hi.y);
    hi.z = std::min(hi.z, box.hi.z);
    // An inverted span (or an empty level) probes no cell, and must not
    // feed a negative span into the structure_tests product below.
    if (hi.x < lo.x || hi.y < lo.y || hi.z < lo.z) continue;
    for (std::int32_t x = lo.x; x <= hi.x; ++x) {
      for (std::int32_t y = lo.y; y <= hi.y; ++y) {
        for (std::int32_t z = lo.z; z <= hi.z; ++z) {
          const auto it = cells_.find(CellKey{level, x, y, z});
          if (it == cells_.end()) continue;
          c.nodes_visited += 1;
          c.element_tests += it->second.size();
          for (const ElementId id : it->second) {
            const AABB& b = placement_.find(id)->second.box;
            if (b.Intersects(range)) out->push_back(id);
          }
        }
      }
    }
    c.structure_tests +=
        static_cast<std::uint64_t>(hi.x - lo.x + 1) * (hi.y - lo.y + 1) *
        (hi.z - lo.z + 1);
  }
  c.results += out->size();
}

void LooseOctree::KnnQuery(const Vec3& p, std::size_t k,
                           std::vector<ElementId>* out,
                           QueryCounters* counters) const {
  out->clear();
  if (k == 0 || placement_.empty()) return;
  // Expanding cube search over RangeQuery (exact; see UniformGrid).
  const double density =
      static_cast<double>(placement_.size()) /
      std::max(1.0, static_cast<double>(universe_.Volume()));
  float radius = static_cast<float>(
      std::cbrt(static_cast<double>(k) / std::max(1e-12, density)));
  radius = std::max(radius, CellSize(options_.levels - 1) * 0.5f);
  float far2 = 0.0f;
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3 v((corner & 1) ? universe_.max.x : universe_.min.x,
                 (corner & 2) ? universe_.max.y : universe_.min.y,
                 (corner & 4) ? universe_.max.z : universe_.min.z);
    far2 = std::max(far2, SquaredDistance(v, p));
  }
  const float max_radius = std::sqrt(far2) + root_side_ * 0.01f;

  std::vector<ElementId> cand_ids;
  std::vector<std::pair<float, ElementId>> cand;
  while (true) {
    RangeQuery(AABB::FromCenterHalfExtent(p, radius), &cand_ids, counters);
    cand.clear();
    cand.reserve(cand_ids.size());
    for (const ElementId id : cand_ids) {
      const AABB& b = placement_.find(id)->second.box;
      cand.emplace_back(b.SquaredDistanceTo(p), id);
      if (counters != nullptr) counters->distance_computations += 1;
    }
    // Every element is a candidate: the k nearest are among them, however
    // far the cube would still have to grow to reach max_radius.
    if (cand.size() == placement_.size()) break;
    if (cand.size() >= k) {
      std::nth_element(cand.begin(), cand.begin() + (k - 1), cand.end(),
                       [](const auto& a, const auto& b) {
                         return a.first != b.first ? a.first < b.first
                                                   : a.second < b.second;
                       });
      if (cand[k - 1].first <= radius * radius || radius >= max_radius) break;
    } else if (radius >= max_radius) {
      break;
    }
    radius *= 2.0f;
  }
  const std::size_t take = std::min(k, cand.size());
  std::partial_sort(cand.begin(), cand.begin() + take, cand.end(),
                    [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first < b.first
                                                : a.second < b.second;
                    });
  out->reserve(take);
  for (std::size_t i = 0; i < take; ++i) out->push_back(cand[i].second);
}

bool LooseOctree::CheckInvariants(std::string* error) const {
  std::size_t slots = 0;
  for (const auto& [key, vec] : cells_) {
    if (vec.empty()) {
      if (error != nullptr) *error = "empty cell kept alive";
      return false;
    }
    slots += vec.size();
    const float cell = CellSize(key.level);
    for (const ElementId id : vec) {
      const auto it = placement_.find(id);
      if (it == placement_.end() || !(it->second.cell == key)) {
        if (error != nullptr) *error = "placement map inconsistent";
        return false;
      }
      // Loose bounds must contain the element's box.
      const Vec3 lo(universe_.min.x + key.x * cell,
                    universe_.min.y + key.y * cell,
                    universe_.min.z + key.z * cell);
      const AABB loose =
          AABB(lo, lo + Vec3(cell, cell, cell)).Inflated(cell * 0.5f);
      if (!loose.Contains(it->second.box)) {
        if (error != nullptr) *error = "element escapes loose bounds";
        return false;
      }
    }
  }
  if (slots != placement_.size()) {
    if (error != nullptr) *error = "slot/placement count mismatch";
    return false;
  }
  return true;
}

}  // namespace simspatial::pam
