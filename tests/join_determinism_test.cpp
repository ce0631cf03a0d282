// Parallel-join determinism battery: every join algorithm must produce a
// BIT-IDENTICAL result — same pairs, same emission order, same counter
// totals, same shortcut tallies — for every thread count, because the
// drivers walk a deterministically-ordered work sequence in contiguous
// chunks and merge per-worker shards in chunk order (join/join_parallel.h).
// threads=0 is the serial reference; 1, 2, 8 and kThreadsAuto must match
// it exactly (no SortPairs anywhere in this file — order is part of the
// contract).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/threads.h"
#include "datagen/neuron.h"
#include "join/spatial_join.h"

namespace simspatial::join {
namespace {

using datagen::GenerateClusteredBoxes;
using datagen::GenerateUniformBoxes;

const AABB kUniverse(Vec3(0, 0, 0), Vec3(60, 60, 60));

const std::uint32_t kThreadCounts[] = {1, 2, 8, par::kThreadsAuto};

struct RunResult {
  std::vector<JoinPair> pairs;
  QueryCounters counters;
  std::uint64_t skipped = 0;
};

template <typename RunFn>
void ExpectThreadInvariant(const char* what, const RunFn& run) {
  const RunResult serial = run(0u);
  for (const std::uint32_t t : kThreadCounts) {
    const RunResult got = run(t);
    EXPECT_EQ(got.pairs, serial.pairs)
        << what << " pairs diverge at threads=" << t;
    EXPECT_EQ(got.counters, serial.counters)
        << what << " counters diverge at threads=" << t;
    EXPECT_EQ(got.skipped, serial.skipped)
        << what << " skipped-test tally diverges at threads=" << t;
  }
}

class JoinDeterminismTest : public ::testing::TestWithParam<float> {};

TEST_P(JoinDeterminismTest, GridSelfJoin) {
  const float eps = GetParam();
  const auto elems = GenerateClusteredBoxes(2500, kUniverse, 6, 3.0f, 0.2f,
                                            0.6f);
  ExpectThreadInvariant("GridSelfJoin", [&](std::uint32_t threads) {
    RunResult r;
    GridJoinOptions o;
    o.threads = threads;
    GridJoinStats stats;
    r.pairs = GridSelfJoin(elems, eps, o, &r.counters, &stats);
    r.skipped = stats.skipped_tests;
    return r;
  });
}

TEST_P(JoinDeterminismTest, GridJoin) {
  const float eps = GetParam();
  const auto a = GenerateUniformBoxes(1800, kUniverse, 0.2f, 0.8f);
  const auto b = GenerateClusteredBoxes(1500, kUniverse, 5, 3.0f, 0.2f,
                                        0.7f);
  ExpectThreadInvariant("GridJoin", [&](std::uint32_t threads) {
    RunResult r;
    GridJoinOptions o;
    o.threads = threads;
    r.pairs = GridJoin(a, b, eps, o, &r.counters);
    return r;
  });
}

/// Clustered boxes plus far-out points (huge, infinite, NaN coordinates)
/// whose cell coordinates clamp into the packed key's span.
std::vector<Element> ClampedSpanDataset(std::size_t n, std::uint64_t seed) {
  auto elems = GenerateClusteredBoxes(n, kUniverse, 6, 3.0f, 0.2f, 0.6f,
                                      seed);
  const float inf = std::numeric_limits<float>::infinity();
  const float far[] = {1e11f, -3e38f, 3e38f, inf, -inf,
                       std::numeric_limits<float>::quiet_NaN()};
  for (const float v : far) {
    for (const Vec3& p : {Vec3(v, 1, 1), Vec3(2, v, 2), Vec3(v, v, -v)}) {
      for (int copy = 0; copy < 2; ++copy) {
        elems.emplace_back(static_cast<ElementId>(elems.size()), AABB(p, p));
      }
    }
  }
  return elems;
}

TEST_P(JoinDeterminismTest, GridSelfJoinClampedSpan) {
  const float eps = GetParam();
  const auto elems = ClampedSpanDataset(2500, 13);
  ExpectThreadInvariant("GridSelfJoin-clamped", [&](std::uint32_t threads) {
    RunResult r;
    GridJoinOptions o;
    o.threads = threads;
    GridJoinStats stats;
    r.pairs = GridSelfJoin(elems, eps, o, &r.counters, &stats);
    r.skipped = stats.skipped_tests;
    return r;
  });
}

TEST_P(JoinDeterminismTest, GridJoinClampedSpan) {
  const float eps = GetParam();
  const auto a = ClampedSpanDataset(1800, 31);
  const auto b = ClampedSpanDataset(1500, 32);
  ExpectThreadInvariant("GridJoin-clamped", [&](std::uint32_t threads) {
    RunResult r;
    GridJoinOptions o;
    o.threads = threads;
    r.pairs = GridJoin(a, b, eps, o, &r.counters);
    return r;
  });
}

TEST_P(JoinDeterminismTest, PbsmSelfJoin) {
  const float eps = GetParam();
  const auto elems = GenerateUniformBoxes(2500, kUniverse, 0.2f, 0.8f);
  ExpectThreadInvariant("PbsmSelfJoin", [&](std::uint32_t threads) {
    RunResult r;
    PbsmOptions o;
    o.threads = threads;
    r.pairs = PbsmSelfJoin(elems, eps, o, &r.counters);
    return r;
  });
}

TEST_P(JoinDeterminismTest, PbsmJoin) {
  const float eps = GetParam();
  const auto a = GenerateClusteredBoxes(1500, kUniverse, 4, 4.0f, 0.2f,
                                        0.6f);
  const auto b = GenerateUniformBoxes(1800, kUniverse, 0.2f, 0.8f);
  ExpectThreadInvariant("PbsmJoin", [&](std::uint32_t threads) {
    RunResult r;
    PbsmOptions o;
    o.threads = threads;
    r.pairs = PbsmJoin(a, b, eps, o, &r.counters);
    return r;
  });
}

TEST_P(JoinDeterminismTest, TouchSelfJoin) {
  const float eps = GetParam();
  const auto elems = GenerateClusteredBoxes(2500, kUniverse, 6, 3.0f, 0.2f,
                                            0.6f);
  ExpectThreadInvariant("TouchSelfJoin", [&](std::uint32_t threads) {
    RunResult r;
    TouchOptions o;
    o.threads = threads;
    r.pairs = TouchSelfJoin(elems, eps, o, &r.counters);
    return r;
  });
}

TEST_P(JoinDeterminismTest, TouchJoin) {
  const float eps = GetParam();
  const auto a = GenerateUniformBoxes(1800, kUniverse, 0.2f, 0.8f);
  const auto b = GenerateClusteredBoxes(1500, kUniverse, 5, 3.0f, 0.2f,
                                        0.7f);
  ExpectThreadInvariant("TouchJoin", [&](std::uint32_t threads) {
    RunResult r;
    TouchOptions o;
    o.threads = threads;
    r.pairs = TouchJoin(a, b, eps, o, &r.counters);
    return r;
  });
}

// The small-cell shortcut path (pairs emitted without a test) must be
// thread-invariant too: force it with fat elements on a tiny cell size.
TEST(JoinDeterminismTest, GridSelfJoinShortcutPath) {
  // Fat boxes (extent >= 8) in tight clusters on a 2.0 cell: the geometric
  // precondition min_extent >= 2 * cell * sqrt(3) holds and centres share
  // cells often enough for the shortcut to fire.
  auto elems = GenerateClusteredBoxes(600, kUniverse, 3, 1.0f, 4.0f, 6.0f);
  ExpectThreadInvariant("GridSelfJoin-shortcut", [&](std::uint32_t threads) {
    RunResult r;
    GridJoinOptions o;
    o.threads = threads;
    o.cell_size = 2.0f;  // Far below min extent: shortcut engages.
    GridJoinStats stats;
    r.pairs = GridSelfJoin(elems, 0.0f, o, &r.counters, &stats);
    r.skipped = stats.skipped_tests;
    EXPECT_GT(r.skipped, 0u) << "shortcut did not engage at threads="
                             << threads;
    return r;
  });
}

INSTANTIATE_TEST_SUITE_P(Eps, JoinDeterminismTest,
                         ::testing::Values(0.0f, 0.5f),
                         [](const auto& info) {
                           return info.param == 0.0f ? "overlap" : "distance";
                         });

}  // namespace
}  // namespace simspatial::join
