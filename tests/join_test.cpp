// Spatial joins: every algorithm must produce the nested-loop reference
// pair set on every dataset shape and epsilon.

#include "join/spatial_join.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "common/bruteforce.h"
#include "common/rng.h"
#include "datagen/neuron.h"

namespace simspatial::join {
namespace {

using datagen::GenerateClusteredBoxes;
using datagen::GenerateNeuronsWithSize;
using datagen::GenerateUniformBoxes;

const AABB kUniverse(Vec3(0, 0, 0), Vec3(60, 60, 60));

std::vector<JoinPair> Reference(const std::vector<Element>& elems,
                                float eps) {
  auto pairs = NestedLoopSelfJoin(elems, eps);
  SortPairs(&pairs);
  return pairs;
}

struct JoinCase {
  const char* name;
  std::size_t n;
  // 0 uniform, 1 clustered, 2 neurons, 3 negative coordinates, 4 elongated
  // universe, 5 duplicate centres.
  int dataset;
  float eps;
};

std::vector<Element> MakeDataset(const JoinCase& c) {
  switch (c.dataset) {
    case 0:
      return GenerateUniformBoxes(c.n, kUniverse, 0.2f, 0.8f);
    case 1:
      return GenerateClusteredBoxes(c.n, kUniverse, 6, 3.0f, 0.2f, 0.6f);
    case 3:
      return GenerateClusteredBoxes(
          c.n, AABB(Vec3(-90, -40, -75), Vec3(-30, 20, -15)), 5, 3.0f, 0.2f,
          0.6f);
    case 4:
      // Thousands of cells along x, two or three along y and z.
      return GenerateUniformBoxes(
          c.n, AABB(Vec3(-2000, 0, 0), Vec3(3000, 1.5f, 1.5f)), 0.1f, 0.4f);
    case 5: {
      // Every centre three times: an exact copy and a fatter concentric
      // box, each under its own id.
      const auto base = GenerateUniformBoxes(c.n / 3, kUniverse, 0.2f, 0.8f);
      std::vector<Element> elems;
      for (const Element& e : base) {
        const auto id = static_cast<ElementId>(elems.size());
        elems.emplace_back(id, e.box);
        elems.emplace_back(id + 1, e.box);
        elems.emplace_back(id + 2, e.box.Inflated(0.3f));
      }
      return elems;
    }
    default: {
      auto ds = GenerateNeuronsWithSize(c.n);
      return ds.elements;
    }
  }
}

class SelfJoinDifferentialTest : public ::testing::TestWithParam<JoinCase> {};

TEST_P(SelfJoinDifferentialTest, PlaneSweep) {
  const JoinCase& c = GetParam();
  const auto elems = MakeDataset(c);
  auto got = PlaneSweepSelfJoin(elems, c.eps);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, c.eps));
}

TEST_P(SelfJoinDifferentialTest, Pbsm) {
  const JoinCase& c = GetParam();
  const auto elems = MakeDataset(c);
  auto got = PbsmSelfJoin(elems, c.eps);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, c.eps));
}

TEST_P(SelfJoinDifferentialTest, Touch) {
  const JoinCase& c = GetParam();
  const auto elems = MakeDataset(c);
  auto got = TouchSelfJoin(elems, c.eps);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, c.eps));
}

TEST_P(SelfJoinDifferentialTest, GridJoin) {
  const JoinCase& c = GetParam();
  const auto elems = MakeDataset(c);
  auto got = GridSelfJoin(elems, c.eps);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, c.eps));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelfJoinDifferentialTest,
    ::testing::Values(JoinCase{"uniform_overlap", 1500, 0, 0.0f},
                      JoinCase{"uniform_eps", 1500, 0, 0.5f},
                      JoinCase{"clustered_overlap", 1500, 1, 0.0f},
                      JoinCase{"clustered_eps", 1200, 1, 0.8f},
                      JoinCase{"neurons_synapse", 2000, 2, 0.5f},
                      JoinCase{"negative_overlap", 1500, 3, 0.0f},
                      JoinCase{"negative_eps", 1500, 3, 0.5f},
                      JoinCase{"elongated_overlap", 3000, 4, 0.0f},
                      JoinCase{"elongated_eps", 3000, 4, 0.7f},
                      JoinCase{"duplicate_centres", 1500, 5, 0.0f},
                      JoinCase{"duplicate_centres_eps", 1500, 5, 0.4f},
                      JoinCase{"tiny", 3, 0, 0.0f},
                      JoinCase{"two_elements", 2, 0, 5.0f}),
    [](const ::testing::TestParamInfo<JoinCase>& info) {
      return info.param.name;
    });

// --- Binary joins -----------------------------------------------------------

TEST(BinaryJoinTest, AllAlgorithmsMatchReference) {
  const auto a = GenerateUniformBoxes(800, kUniverse, 0.3f, 1.0f, 111);
  auto b_raw = GenerateClusteredBoxes(700, kUniverse, 4, 4.0f, 0.3f, 1.0f,
                                      222);
  // Distinct id spaces keep pair semantics unambiguous.
  std::vector<Element> b;
  for (const Element& e : b_raw) {
    b.emplace_back(e.id + 10000, e.box);
  }
  for (const float eps : {0.0f, 0.7f}) {
    auto want = NestedLoopJoin(a, b, eps);
    SortPairs(&want);
    auto sweep = PlaneSweepJoin(a, b, eps);
    SortPairs(&sweep);
    EXPECT_EQ(sweep, want) << "sweep eps=" << eps;
    auto pbsm = PbsmJoin(a, b, eps);
    SortPairs(&pbsm);
    EXPECT_EQ(pbsm, want) << "pbsm eps=" << eps;
    auto touch = TouchJoin(a, b, eps);
    SortPairs(&touch);
    EXPECT_EQ(touch, want) << "touch eps=" << eps;
    auto gridj = GridJoin(a, b, eps);
    SortPairs(&gridj);
    EXPECT_EQ(gridj, want) << "grid eps=" << eps;
  }
}

TEST(BinaryJoinTest, EmptySidesYieldNoPairs) {
  const auto a = GenerateUniformBoxes(100, kUniverse, 0.2f, 0.5f);
  EXPECT_TRUE(PlaneSweepJoin(a, {}, 0.0f).empty());
  EXPECT_TRUE(PbsmJoin({}, a, 0.0f).empty());
  EXPECT_TRUE(TouchJoin(a, {}, 0.0f).empty());
  EXPECT_TRUE(GridJoin({}, {}, 0.0f).empty());
}

// --- Algorithmic properties the paper claims --------------------------------

TEST(JoinPropertyTest, EveryAlgorithmBeatsNestedLoopOnComparisons) {
  const auto elems = GenerateUniformBoxes(3000, kUniverse, 0.2f, 0.6f);
  QueryCounters nl, sweep, pbsm, touch, gridj;
  NestedLoopSelfJoin(elems, 0.0f, &nl);
  PlaneSweepSelfJoin(elems, 0.0f, &sweep);
  PbsmSelfJoin(elems, 0.0f, {}, &pbsm);
  TouchSelfJoin(elems, 0.0f, {}, &touch);
  GridSelfJoin(elems, 0.0f, {}, &gridj);
  EXPECT_LT(sweep.element_tests, nl.element_tests);
  EXPECT_LT(pbsm.element_tests, nl.element_tests);
  EXPECT_LT(touch.element_tests, nl.element_tests);
  EXPECT_LT(gridj.element_tests, nl.element_tests);
}

TEST(JoinPropertyTest, SweepComparesDistantObjects) {
  // §4.3: "The sweep line approach does not ensure that only spatially
  // close objects are compared." Construct a worst case: all elements
  // overlap in x but are spread in y — the sweep tests O(n^2) pairs while
  // the grid join stays near-linear.
  std::vector<Element> elems;
  for (ElementId i = 0; i < 400; ++i) {
    const float y = static_cast<float>(i) * 2.0f;
    elems.emplace_back(i, AABB(Vec3(0, y, 0), Vec3(50, y + 0.5f, 0.5f)));
  }
  QueryCounters sweep, gridj;
  PlaneSweepSelfJoin(elems, 0.0f, &sweep);
  GridSelfJoin(elems, 0.0f, {}, &gridj);
  EXPECT_GT(sweep.element_tests, gridj.element_tests * 5);
}

TEST(JoinPropertyTest, SmallCellShortcutSkipsTests) {
  // §4.3: "if the grid cell size is smaller than the smallest element size,
  // then objects in the same cell intersect by definition."
  std::vector<Element> elems;
  Rng rng(77);
  const AABB tight(Vec3(0, 0, 0), Vec3(10, 10, 10));
  for (ElementId i = 0; i < 300; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(rng.PointIn(tight),
                                                     3.0f));  // Big boxes.
  }
  GridJoinOptions opts;
  opts.cell_size = 0.5f;  // Much smaller than any element.
  opts.small_cell_shortcut = true;
  GridJoinStats stats;
  auto got = GridSelfJoin(elems, 0.0f, opts, nullptr, &stats);
  SortPairs(&got);
  // Cell far below element size violates the one-cell-neighbourhood
  // completeness bound, so compare only the shortcut accounting, not the
  // result set (the bench uses compliant sizes).
  EXPECT_GT(stats.skipped_tests, 0u);
  // Every shortcut-emitted pair must genuinely intersect.
  for (const auto& [lo, hi] : got) {
    EXPECT_TRUE(elems[lo].box.Intersects(elems[hi].box));
  }
}

TEST(JoinPropertyTest, GridJoinDefaultCellIsComplete) {
  // The default (max extent + eps) cell size must keep the join exact even
  // with very skewed element sizes.
  std::vector<Element> elems;
  Rng rng(78);
  for (ElementId i = 0; i < 600; ++i) {
    const float half = (i % 20 == 0) ? 4.0f : 0.2f;
    elems.emplace_back(
        i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse), half));
  }
  auto got = GridSelfJoin(elems, 0.3f);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, 0.3f));
}

TEST(JoinPropertyTest, GridJoinExplicitCellSizeIsComplete) {
  // Any cell at least max extent + eps wide keeps the join exact; a coarser
  // one only puts more candidates in each cell.
  const auto elems = GenerateClusteredBoxes(1500, kUniverse, 6, 3.0f, 0.2f,
                                            0.6f);
  const auto b_raw = GenerateUniformBoxes(900, kUniverse, 0.2f, 0.8f, 5);
  std::vector<Element> b;
  for (const Element& e : b_raw) b.emplace_back(e.id + 10000, e.box);
  for (const float cell : {2.0f, 3.7f, 11.0f}) {
    GridJoinOptions opts;
    opts.cell_size = cell;
    GridJoinStats stats;
    auto got = GridSelfJoin(elems, 0.5f, opts, nullptr, &stats);
    EXPECT_EQ(stats.cell_size, cell);
    SortPairs(&got);
    EXPECT_EQ(got, Reference(elems, 0.5f)) << "cell=" << cell;
    auto bin = GridJoin(elems, b, 0.5f, opts);
    SortPairs(&bin);
    auto want = NestedLoopJoin(elems, b, 0.5f);
    SortPairs(&want);
    EXPECT_EQ(bin, want) << "binary cell=" << cell;
  }
}

// --- Extreme coordinates ------------------------------------------------------
//
// Cell coordinates of huge, infinite or NaN centres do not fit the packed
// cell key; they clamp into the key's span (NaN to its low border). The
// join must stay exact, and the small-cell shortcut must not fire on the
// clamped cells.

/// A small cluster with real pairs, plus points far out on every axis:
/// each far point twice (an intersecting pair), some with NaN parts.
std::vector<Element> ExtremeDataset(ElementId first_id) {
  std::vector<Element> elems;
  for (const Element& e : GenerateUniformBoxes(
           200, AABB(Vec3(-3, -3, -3), Vec3(3, 3, 3)), 0.1f, 0.3f, 21)) {
    elems.emplace_back(first_id + e.id, e.box);
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float far[] = {1e6f, -1e6f, 1e11f, -2e19f, 3e38f, -3e38f, inf, -inf,
                       nan};
  for (const float v : far) {
    for (const Vec3& p : {Vec3(v, 0, 0), Vec3(0, v, 1), Vec3(-1, 2, v),
                          Vec3(v, v, v), Vec3(v, -v, 0.5f)}) {
      for (int copy = 0; copy < 2; ++copy) {
        const auto id = static_cast<ElementId>(first_id + elems.size());
        elems.emplace_back(id, AABB(p, p));
      }
    }
  }
  return elems;
}

TEST(JoinPropertyTest, GridSelfJoinExactAtExtremeCoordinates) {
  const auto elems = ExtremeDataset(0);
  for (const float eps : {0.0f, 0.5f}) {
    auto got = GridSelfJoin(elems, eps);
    SortPairs(&got);
    EXPECT_EQ(got, Reference(elems, eps)) << "eps=" << eps;
  }
}

TEST(JoinPropertyTest, GridJoinExactAtExtremeCoordinates) {
  const auto a = ExtremeDataset(0);
  const auto b = ExtremeDataset(10000);
  for (const float eps : {0.0f, 0.5f}) {
    auto got = GridJoin(a, b, eps);
    SortPairs(&got);
    auto want = NestedLoopJoin(a, b, eps);
    SortPairs(&want);
    EXPECT_EQ(got, want) << "eps=" << eps;
  }
}

TEST(JoinPropertyTest, GridJoinPointsFarFromOriginOnTinyCells) {
  // Zero-extent points at eps 0 take the 1e-5 floor cell, so x = 1e6 is
  // cell 1e11: beyond 32 bits, within the key. Neighbouring floats there
  // are 0.0625 apart, i.e. thousands of cells.
  std::vector<Element> elems;
  for (ElementId i = 0; i < 300; ++i) {
    const Vec3 p(1e6f + 0.0625f * static_cast<float>(i % 97),
                 static_cast<float>(i % 3), -1e6f);
    elems.emplace_back(i, AABB(p, p));
  }
  GridJoinStats stats;
  auto got = GridSelfJoin(elems, 0.0f, {}, nullptr, &stats);
  EXPECT_EQ(stats.cell_size, 1e-5f);
  SortPairs(&got);
  EXPECT_EQ(got, Reference(elems, 0.0f));
  auto bin = GridJoin(elems, elems, 0.0f);
  SortPairs(&bin);
  auto want = NestedLoopJoin(elems, elems, 0.0f);
  SortPairs(&want);
  EXPECT_EQ(bin, want);
}

TEST(JoinPropertyTest, GridJoinUnboundedBoxStaysExact) {
  // A box spanning every float has an infinite extent, so the default cell
  // is infinite and every centre (NaN for the unbounded box) shares one
  // cell.
  auto elems = GenerateUniformBoxes(300, kUniverse, 0.2f, 0.8f);
  const float inf = std::numeric_limits<float>::infinity();
  elems.emplace_back(static_cast<ElementId>(elems.size()),
                     AABB(Vec3(-inf, -inf, -inf), Vec3(inf, inf, inf)));
  for (const float eps : {0.0f, 0.5f}) {
    auto got = GridSelfJoin(elems, eps);
    SortPairs(&got);
    EXPECT_EQ(got, Reference(elems, eps)) << "eps=" << eps;
  }
}

TEST(JoinPropertyTest, SmallCellShortcutOffWhenCellsClamp) {
  // Fat boxes where the shortcut's precondition holds, plus far-apart fat
  // boxes whose cells clamp together: a shortcut there would emit pairs
  // that do not intersect.
  std::vector<Element> elems;
  for (ElementId i = 0; i < 40; ++i) {
    const float x = (i % 2 == 0 ? 1.0f : -1.0f) * 1e30f *
                    static_cast<float>(1 + i);
    elems.emplace_back(i, AABB::FromCenterHalfExtent(
                              Vec3(x, x, x), std::abs(x) * 1e-3f));
  }
  GridJoinOptions opts;
  opts.cell_size = 2.0f;
  GridJoinStats stats;
  auto got = GridSelfJoin(elems, 0.0f, opts, nullptr, &stats);
  SortPairs(&got);
  EXPECT_EQ(stats.skipped_tests, 0u);
  EXPECT_EQ(got, Reference(elems, 0.0f));
}

// --- Candidate oracle -------------------------------------------------------
//
// The grid join's candidates follow from its cell rule alone. The oracle
// restates that rule (grid_join.cc: CellCoord and KeyLayout) and walks the
// occupied cells by brute force: same-cell pairs, then the 13 forward
// neighbour cells (self-join) or all 27 (binary join). Both drivers must
// report exactly its counters and its pairs, whatever loops they run.

/// Cell coordinates of the grid join: floor(centre / cell) per axis,
/// clamped into the span the packed key covers (NaN to its low border).
class OracleCellRule {
 public:
  OracleCellRule(float cell,
                 const std::vector<const std::vector<Element>*>& sets,
                 std::size_t max_elements)
      : inv_(1.0f / cell) {
    const float inf = std::numeric_limits<float>::infinity();
    std::array<float, 3> clo{inf, inf, inf};
    std::array<float, 3> chi{-inf, -inf, -inf};
    for (const auto* set : sets) {
      for (const Element& e : *set) {
        const Vec3 c = e.Center();
        for (int a = 0; a < 3; ++a) {
          if (c[a] < clo[a]) clo[a] = c[a];
          if (chi[a] < c[a]) chi[a] = c[a];
        }
      }
    }
    const int index_bits =
        std::bit_width(std::max<std::size_t>(max_elements, 1) - 1);
    std::array<int, 3> need{};
    for (int a = 0; a < 3; ++a) {
      bool ignored = false;
      lo_[a] = Coord(clo[a], &ignored);
      hi_[a] = std::max(lo_[a], Coord(chi[a], &ignored));
      need[a] = std::bit_width(static_cast<std::uint64_t>(hi_[a]) -
                               static_cast<std::uint64_t>(lo_[a]) + 2);
    }
    std::array<int, 3> order{0, 1, 2};
    std::stable_sort(order.begin(), order.end(),
                     [&](int p, int q) { return need[p] < need[q]; });
    int left = 64 - index_bits;
    for (int k = 0; k < 3; ++k) {
      const int a = order[k];
      const int bits = std::min(need[a], left / (3 - k));
      left -= bits;
      if (bits < need[a]) {
        hi_[a] = lo_[a] + static_cast<std::int64_t>(
                              (std::uint64_t{1} << bits) - 3);
      }
    }
  }

  std::array<std::int64_t, 3> Cell(const Vec3& p, bool* clamped) const {
    std::array<std::int64_t, 3> cell{};
    for (int a = 0; a < 3; ++a) {
      cell[a] = Coord(p[a], clamped);
      if (cell[a] < lo_[a] || cell[a] > hi_[a]) {
        cell[a] = std::clamp(cell[a], lo_[a], hi_[a]);
        *clamped = true;
      }
    }
    return cell;
  }

 private:
  std::int64_t Coord(float v, bool* clamped) const {
    constexpr std::int64_t kMax = std::int64_t{1} << 62;
    const float f = std::floor(v * inv_);
    if (f >= -0x1p62f && f <= 0x1p62f) return static_cast<std::int64_t>(f);
    *clamped = true;
    return f > 0.0f ? kMax : -kMax;
  }

  float inv_;
  std::array<std::int64_t, 3> lo_{};
  std::array<std::int64_t, 3> hi_{};
};

using OracleCell = std::array<std::int64_t, 3>;
/// Occupied cells in (x, y, z) order, each with its elements in input order.
using OracleGrid = std::map<OracleCell, std::vector<const Element*>>;

OracleGrid OracleCells(const std::vector<Element>& elems,
                       const OracleCellRule& rule, bool* clamped) {
  OracleGrid grid;
  for (const Element& e : elems) {
    grid[rule.Cell(e.Center(), clamped)].push_back(&e);
  }
  return grid;
}

OracleCell Neighbour(const OracleCell& c, int dx, int dy, int dz) {
  return {c[0] + dx, c[1] + dy, c[2] + dz};
}

struct OracleResult {
  std::vector<JoinPair> pairs;  ///< Sorted.
  QueryCounters counters;
  std::uint64_t skipped = 0;
};

OracleResult SelfJoinOracle(const std::vector<Element>& elems, float eps,
                            float cell, bool shortcut_enabled) {
  const OracleCellRule rule(cell, {&elems}, elems.size());
  bool clamped = false;
  const OracleGrid grid = OracleCells(elems, rule, &clamped);
  float min_extent = std::numeric_limits<float>::max();
  for (const Element& e : elems) {
    const Vec3 ext = e.box.Extent();
    for (int a = 0; a < 3; ++a) {
      if (ext[a] < min_extent) min_extent = ext[a];
    }
  }
  const bool shortcut = shortcut_enabled && eps == 0.0f && !clamped &&
                        min_extent >= 2.0f * cell * std::sqrt(3.0f);
  OracleResult r;
  const auto test = [&](const Element* a, const Element* b) {
    r.counters.element_tests += 1;
    if (PairMatches(a->box, b->box, eps)) {
      r.pairs.emplace_back(std::min(a->id, b->id), std::max(a->id, b->id));
    }
  };
  for (const auto& [key, members] : grid) {
    r.counters.nodes_visited += 1;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        if (shortcut) {
          r.skipped += 1;
          r.pairs.emplace_back(std::min(members[i]->id, members[j]->id),
                               std::max(members[i]->id, members[j]->id));
        } else {
          test(members[i], members[j]);
        }
      }
    }
    for (int dx = 0; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          // Lexicographically positive offsets only.
          if (dx == 0 && (dy < 0 || (dy == 0 && dz <= 0))) continue;
          const auto it = grid.find(Neighbour(key, dx, dy, dz));
          if (it == grid.end()) continue;
          r.counters.structure_tests += 1;
          for (const Element* a : members) {
            for (const Element* b : it->second) test(a, b);
          }
        }
      }
    }
  }
  r.counters.results = r.pairs.size();
  SortPairs(&r.pairs);
  return r;
}

OracleResult JoinOracle(const std::vector<Element>& a,
                        const std::vector<Element>& b, float eps,
                        float cell) {
  const OracleCellRule rule(cell, {&a, &b}, std::max(a.size(), b.size()));
  bool clamped = false;
  const OracleGrid ga = OracleCells(a, rule, &clamped);
  const OracleGrid gb = OracleCells(b, rule, &clamped);
  OracleResult r;
  for (const auto& [key, members] : gb) {
    r.counters.nodes_visited += 1;
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dz = -1; dz <= 1; ++dz) {
          const auto it = ga.find(Neighbour(key, dx, dy, dz));
          if (it == ga.end()) continue;
          r.counters.structure_tests += 1;
          for (const Element* eb : members) {
            for (const Element* ea : it->second) {
              r.counters.element_tests += 1;
              if (PairMatches(ea->box, eb->box, eps)) {
                r.pairs.emplace_back(ea->id, eb->id);
              }
            }
          }
        }
      }
    }
  }
  r.counters.results = r.pairs.size();
  SortPairs(&r.pairs);
  return r;
}

std::vector<Element> WithIdsFrom(const std::vector<Element>& elems,
                                 ElementId first) {
  std::vector<Element> out;
  for (const Element& e : elems) out.emplace_back(first + e.id, e.box);
  return out;
}

/// ExtremeDataset plus a box spanning every float. Its infinite extent
/// puts every centre in one cell, and its pairs with the infinite points
/// hit inf - inf = NaN on one side of AxisGap only, where PairMatches'
/// orientation decides the result.
std::vector<Element> UnboundedDataset(ElementId first_id) {
  std::vector<Element> elems = ExtremeDataset(first_id);
  const float inf = std::numeric_limits<float>::infinity();
  elems.emplace_back(static_cast<ElementId>(first_id + elems.size()),
                     AABB(Vec3(-inf, -inf, -inf), Vec3(inf, inf, inf)));
  return elems;
}

/// Fat boxes on cells far below their size: the small-cell shortcut fires
/// (the join is then incomplete by design, so only the oracle applies).
std::vector<Element> ShortcutDataset() {
  std::vector<Element> elems;
  Rng rng(77);
  const AABB tight(Vec3(0, 0, 0), Vec3(10, 10, 10));
  for (ElementId i = 0; i < 300; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(rng.PointIn(tight), 3.0f));
  }
  return elems;
}

TEST(GridJoinOracleTest, SelfJoinCountersAndPairsMatchCellOracle) {
  struct Case {
    const char* name;
    std::vector<Element> elems;
    float cell_size;  // 0: the default.
    bool complete;    // Pairs must also equal the nested loop.
  };
  const std::vector<Case> cases = {
      {"uniform", GenerateUniformBoxes(1500, kUniverse, 0.2f, 0.8f), 0, true},
      {"clustered",
       GenerateClusteredBoxes(1500, kUniverse, 6, 3.0f, 0.2f, 0.6f), 0, true},
      {"clamped_span", ExtremeDataset(0), 0, true},
      {"unbounded", UnboundedDataset(0), 0, true},
      {"ids_from_2^31",
       WithIdsFrom(GenerateClusteredBoxes(1200, kUniverse, 5, 3.0f, 0.2f,
                                          0.7f),
                   0x80000000u),
       0, true},
      {"coarse_cells", GenerateUniformBoxes(1200, kUniverse, 0.2f, 0.8f),
       5.0f, true},
      {"shortcut", ShortcutDataset(), 0.5f, false},
  };
  for (const Case& c : cases) {
    for (const float eps : {0.0f, 0.5f}) {
      for (const std::uint32_t threads : {1u, 2u}) {
        GridJoinOptions opts;
        opts.cell_size = c.cell_size;
        opts.threads = threads;
        QueryCounters counters;
        GridJoinStats stats;
        auto got = GridSelfJoin(c.elems, eps, opts, &counters, &stats);
        SortPairs(&got);
        const OracleResult want =
            SelfJoinOracle(c.elems, eps, stats.cell_size, true);
        const std::string what = std::string(c.name) + " eps=" +
                                 std::to_string(eps) +
                                 " threads=" + std::to_string(threads);
        EXPECT_EQ(counters, want.counters) << what;
        EXPECT_EQ(stats.skipped_tests, want.skipped) << what;
        EXPECT_EQ(got, want.pairs) << what;
        if (c.complete) EXPECT_EQ(got, Reference(c.elems, eps)) << what;
      }
    }
  }
  // The shortcut case must really take the shortcut.
  EXPECT_GT(SelfJoinOracle(ShortcutDataset(), 0.0f, 0.5f, true).skipped, 0u);
}

TEST(GridJoinOracleTest, BinaryJoinCountersAndPairsMatchCellOracle) {
  struct Case {
    const char* name;
    std::vector<Element> a;
    std::vector<Element> b;
    float cell_size;
  };
  const std::vector<Case> cases = {
      {"uniform_x_clustered",
       GenerateUniformBoxes(1200, kUniverse, 0.2f, 0.8f),
       GenerateClusteredBoxes(900, kUniverse, 5, 3.0f, 0.2f, 0.7f), 0},
      {"clamped_span", ExtremeDataset(0), ExtremeDataset(10000), 0},
      {"unbounded_a", UnboundedDataset(0), ExtremeDataset(10000), 0},
      {"unbounded_b", ExtremeDataset(0), UnboundedDataset(10000), 0},
      {"ids_from_2^31",
       WithIdsFrom(GenerateUniformBoxes(1000, kUniverse, 0.2f, 0.8f, 3),
                   0x80000000u),
       WithIdsFrom(GenerateClusteredBoxes(800, kUniverse, 4, 3.0f, 0.2f, 0.6f),
                   0xF0000000u),
       0},
      {"one_element_side", ExtremeDataset(0),
       {Element(7, AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)))}, 0},
      {"coarse_cells", GenerateUniformBoxes(900, kUniverse, 0.2f, 0.8f, 4),
       GenerateUniformBoxes(700, kUniverse, 0.2f, 0.8f, 5), 5.0f},
  };
  for (const Case& c : cases) {
    for (const float eps : {0.0f, 0.5f}) {
      for (const std::uint32_t threads : {1u, 2u}) {
        GridJoinOptions opts;
        opts.cell_size = c.cell_size;
        opts.threads = threads;
        QueryCounters counters;
        GridJoinStats stats;
        auto got = GridJoin(c.a, c.b, eps, opts, &counters, &stats);
        SortPairs(&got);
        const OracleResult want = JoinOracle(c.a, c.b, eps, stats.cell_size);
        const std::string what = std::string(c.name) + " eps=" +
                                 std::to_string(eps) +
                                 " threads=" + std::to_string(threads);
        EXPECT_EQ(counters, want.counters) << what;
        EXPECT_EQ(got, want.pairs) << what;
        auto nested = NestedLoopJoin(c.a, c.b, eps);
        SortPairs(&nested);
        EXPECT_EQ(got, nested) << what;
      }
    }
  }
}

}  // namespace
}  // namespace simspatial::join
