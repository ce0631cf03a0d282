#include "grid/uniform_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace simspatial::grid {

namespace {

constexpr std::size_t kMaxCellsPerAxis = 2048;

}  // namespace

UniformGrid::UniformGrid(const AABB& universe, float cell_size)
    : universe_(universe) {
  const Vec3 ext = universe.Extent();
  const float max_ext = std::max({ext.x, ext.y, ext.z, 1e-6f});
  if (cell_size <= 0.0f) cell_size = max_ext / 64.0f;
  cell_size_ = cell_size;
  inv_cell_size_ = 1.0f / cell_size_;
  const auto axis_cells = [&](float e) {
    const auto n = static_cast<std::size_t>(std::ceil(e * inv_cell_size_));
    return std::clamp<std::size_t>(n, 1, kMaxCellsPerAxis);
  };
  nx_ = axis_cells(ext.x);
  ny_ = axis_cells(ext.y);
  nz_ = axis_cells(ext.z);
  cells_.resize(nx_ * ny_ * nz_);
}

CellCoord UniformGrid::CoordOf(const Vec3& p) const { return ClampedCoord(p); }

CellCoord UniformGrid::ClampedCoord(const Vec3& p) const {
  const auto clamp_axis = [&](float v, float lo, std::size_t n) {
    return ClampedCellCoord((v - lo) * inv_cell_size_, 0,
                            static_cast<std::int32_t>(n) - 1);
  };
  return CellCoord{clamp_axis(p.x, universe_.min.x, nx_),
                   clamp_axis(p.y, universe_.min.y, ny_),
                   clamp_axis(p.z, universe_.min.z, nz_)};
}

void UniformGrid::CoordRange(const AABB& box, CellCoord* lo,
                             CellCoord* hi) const {
  // Normalise inverted boxes (min > max on some axis) so the cell loops
  // always get an ordered span. The span is only a CANDIDATE filter — the
  // exact per-element Intersects test downstream keeps the closed-box
  // semantics, under which an inverted probe still matches elements that
  // span its whole inversion gap (and nothing else). Without the
  // normalisation those candidates are silently skipped once cells are
  // finer than the gap (a divergence the registry-wide degenerate-box
  // battery pins; MultiGrid's fine levels hit it first). Element boxes are
  // never inverted, so the mutation-path callers are unaffected.
  *lo = ClampedCoord(Vec3::Min(box.min, box.max));
  *hi = ClampedCoord(Vec3::Max(box.min, box.max));
}

void UniformGrid::AddToCells(ElementId id, const CellCoord& lo,
                             const CellCoord& hi) {
  for (std::int32_t x = lo.x; x <= hi.x; ++x) {
    for (std::int32_t y = lo.y; y <= hi.y; ++y) {
      for (std::int32_t z = lo.z; z <= hi.z; ++z) {
        cells_[CellIndex({x, y, z})].push_back(id);
      }
    }
  }
}

void UniformGrid::RemoveFromCells(ElementId id, const CellCoord& lo,
                                  const CellCoord& hi) {
  for (std::int32_t x = lo.x; x <= hi.x; ++x) {
    for (std::int32_t y = lo.y; y <= hi.y; ++y) {
      for (std::int32_t z = lo.z; z <= hi.z; ++z) {
        auto& cell = cells_[CellIndex({x, y, z})];
        const auto it = std::find(cell.begin(), cell.end(), id);
        assert(it != cell.end());
        *it = cell.back();
        cell.pop_back();
      }
    }
  }
}

void UniformGrid::Build(std::span<const Element> elements) {
  for (auto& cell : cells_) cell.clear();
  elements_.clear();
  elements_.reserve(elements.size());
  update_stats_ = GridUpdateStats{};
  for (const Element& e : elements) Insert(e);
}

void UniformGrid::Insert(const Element& element) {
  assert(elements_.find(element.id) == elements_.end());
  elements_.emplace(element.id, ElemEntry{element.box});
  CellCoord lo;
  CellCoord hi;
  CoordRange(element.box, &lo, &hi);
  AddToCells(element.id, lo, hi);
}

bool UniformGrid::Erase(ElementId id) {
  const auto it = elements_.find(id);
  if (it == elements_.end()) return false;
  CellCoord lo;
  CellCoord hi;
  CoordRange(it->second.box, &lo, &hi);
  RemoveFromCells(id, lo, hi);
  elements_.erase(it);
  return true;
}

bool UniformGrid::Update(ElementId id, const AABB& new_box) {
  const auto it = elements_.find(id);
  if (it == elements_.end()) return false;
  ++update_stats_.updates;
  CellCoord old_lo;
  CellCoord old_hi;
  CoordRange(it->second.box, &old_lo, &old_hi);
  CellCoord new_lo;
  CellCoord new_hi;
  CoordRange(new_box, &new_lo, &new_hi);
  it->second.box = new_box;
  if (old_lo == new_lo && old_hi == new_hi) {
    ++update_stats_.in_place;  // §4.3 fast path: no structural change.
    return true;
  }
  // Migrate only cells leaving / entering the covered range.
  for (std::int32_t x = old_lo.x; x <= old_hi.x; ++x) {
    for (std::int32_t y = old_lo.y; y <= old_hi.y; ++y) {
      for (std::int32_t z = old_lo.z; z <= old_hi.z; ++z) {
        const bool still_covered = x >= new_lo.x && x <= new_hi.x &&
                                   y >= new_lo.y && y <= new_hi.y &&
                                   z >= new_lo.z && z <= new_hi.z;
        if (!still_covered) {
          auto& cell = cells_[CellIndex({x, y, z})];
          const auto pos = std::find(cell.begin(), cell.end(), id);
          assert(pos != cell.end());
          *pos = cell.back();
          cell.pop_back();
          ++update_stats_.cell_migrations;
        }
      }
    }
  }
  for (std::int32_t x = new_lo.x; x <= new_hi.x; ++x) {
    for (std::int32_t y = new_lo.y; y <= new_hi.y; ++y) {
      for (std::int32_t z = new_lo.z; z <= new_hi.z; ++z) {
        const bool was_covered = x >= old_lo.x && x <= old_hi.x &&
                                 y >= old_lo.y && y <= old_hi.y &&
                                 z >= old_lo.z && z <= old_hi.z;
        if (!was_covered) {
          cells_[CellIndex({x, y, z})].push_back(id);
          ++update_stats_.cell_migrations;
        }
      }
    }
  }
  return true;
}

std::size_t UniformGrid::ApplyUpdates(std::span<const ElementUpdate> updates) {
  std::size_t applied = 0;
  for (const ElementUpdate& u : updates) {
    applied += Update(u.id, u.new_box) ? 1 : 0;
  }
  return applied;
}

void UniformGrid::RangeQuery(const AABB& range, std::vector<ElementId>* out,
                             QueryCounters* counters) const {
  out->clear();
  CellCoord lo;
  CellCoord hi;
  CoordRange(range, &lo, &hi);
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;

  for (std::int32_t x = lo.x; x <= hi.x; ++x) {
    for (std::int32_t y = lo.y; y <= hi.y; ++y) {
      for (std::int32_t z = lo.z; z <= hi.z; ++z) {
        const auto& cell = cells_[CellIndex({x, y, z})];
        c.nodes_visited += 1;
        c.bytes_read += cell.size() * sizeof(ElementId);
        for (const ElementId id : cell) {
          const AABB& box = elements_.find(id)->second.box;
          c.element_tests += 1;
          c.bytes_read += sizeof(AABB);
          if (!box.Intersects(range)) continue;
          // Reference-point deduplication: report the element only in the
          // first covered cell that also lies inside the query's cell
          // range. Exact and stateless.
          const CellCoord elem_lo = ClampedCoord(box.min);
          const CellCoord ref{std::max(elem_lo.x, lo.x),
                              std::max(elem_lo.y, lo.y),
                              std::max(elem_lo.z, lo.z)};
          if (ref.x == x && ref.y == y && ref.z == z) out->push_back(id);
        }
      }
    }
  }
  c.results += out->size();
}

void UniformGrid::KnnQuery(const Vec3& p, std::size_t k,
                           std::vector<ElementId>* out,
                           QueryCounters* counters) const {
  out->clear();
  if (k == 0 || elements_.empty()) return;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;

  // Expanding cube search. Start with a radius that would hold ~k elements
  // at average density and double until the k-th best is provably final.
  const double density = static_cast<double>(elements_.size()) /
                         std::max(1.0, static_cast<double>(universe_.Volume()));
  float radius = static_cast<float>(
      std::cbrt(static_cast<double>(k) / std::max(1e-12, density)));
  radius = std::max(radius, cell_size_ * 0.5f);

  std::vector<std::pair<float, ElementId>> cand;
  // A probe of this radius is guaranteed to cover the whole universe even
  // when the query point lies outside it.
  float far2 = 0.0f;
  for (int corner = 0; corner < 8; ++corner) {
    const Vec3 v((corner & 1) ? universe_.max.x : universe_.min.x,
                 (corner & 2) ? universe_.max.y : universe_.min.y,
                 (corner & 4) ? universe_.max.z : universe_.min.z);
    far2 = std::max(far2, SquaredDistance(v, p));
  }
  const float max_radius = std::sqrt(far2) + cell_size_;
  while (true) {
    cand.clear();
    const AABB probe = AABB::FromCenterHalfExtent(p, radius);
    CellCoord lo;
    CellCoord hi;
    CoordRange(probe, &lo, &hi);
    for (std::int32_t x = lo.x; x <= hi.x; ++x) {
      for (std::int32_t y = lo.y; y <= hi.y; ++y) {
        for (std::int32_t z = lo.z; z <= hi.z; ++z) {
          const auto& cell = cells_[CellIndex({x, y, z})];
          c.nodes_visited += 1;
          for (const ElementId id : cell) {
            const AABB& box = elements_.find(id)->second.box;
            // Dedup: canonical cell of the element within the probe range.
            const CellCoord elem_lo = ClampedCoord(box.min);
            const CellCoord ref{std::max(elem_lo.x, lo.x),
                                std::max(elem_lo.y, lo.y),
                                std::max(elem_lo.z, lo.z)};
            if (ref.x != x || ref.y != y || ref.z != z) continue;
            c.distance_computations += 1;
            cand.emplace_back(box.SquaredDistanceTo(p), id);
          }
        }
      }
    }
    if (cand.size() >= k) {
      std::nth_element(
          cand.begin(), cand.begin() + (k - 1), cand.end(),
          [](const auto& a, const auto& b) {
            return a.first != b.first ? a.first < b.first
                                      : a.second < b.second;
          });
      const float kth = cand[k - 1].first;
      // Complete iff every element within sqrt(kth) intersects the probe.
      if (kth <= radius * radius || radius >= max_radius) break;
    } else if (radius >= max_radius) {
      break;  // Fewer than k elements in total.
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
  c.results += out->size();
}

GridShape UniformGrid::Shape() const {
  GridShape s;
  s.elements = elements_.size();
  s.cells = cells_.size();
  for (const auto& cell : cells_) {
    s.occupied_cells += cell.empty() ? 0 : 1;
    s.total_slots += cell.size();
    s.bytes += cell.capacity() * sizeof(ElementId);
  }
  s.bytes += cells_.size() * sizeof(cells_[0]);
  s.bytes += elements_.size() * (sizeof(ElemEntry) + sizeof(ElementId) + 16);
  s.replication_factor =
      s.elements == 0 ? 0.0
                      : static_cast<double>(s.total_slots) /
                            static_cast<double>(s.elements);
  return s;
}

bool UniformGrid::CheckInvariants(std::string* error) const {
  std::size_t expected_slots = 0;
  for (const auto& [id, entry] : elements_) {
    CellCoord lo;
    CellCoord hi;
    CoordRange(entry.box, &lo, &hi);
    for (std::int32_t x = lo.x; x <= hi.x; ++x) {
      for (std::int32_t y = lo.y; y <= hi.y; ++y) {
        for (std::int32_t z = lo.z; z <= hi.z; ++z) {
          const auto& cell = cells_[CellIndex({x, y, z})];
          if (std::count(cell.begin(), cell.end(), id) != 1) {
            if (error != nullptr) {
              *error = "element " + std::to_string(id) +
                       " not exactly once in covered cell";
            }
            return false;
          }
          ++expected_slots;
        }
      }
    }
  }
  std::size_t actual_slots = 0;
  for (const auto& cell : cells_) actual_slots += cell.size();
  if (actual_slots != expected_slots) {
    if (error != nullptr) {
      *error = "stray cell memberships: " + std::to_string(actual_slots) +
               " vs expected " + std::to_string(expected_slots);
    }
    return false;
  }
  return true;
}

}  // namespace simspatial::grid
