// Spatial joins: every algorithm must produce the nested-loop reference
// pair set on every dataset shape and epsilon.

#include "join/spatial_join.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

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

}  // namespace
}  // namespace simspatial::join
