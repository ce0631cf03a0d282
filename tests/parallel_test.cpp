// Parallel + layout determinism battery: the MemGrid parallel kernels
// (counting-scatter Build, rank-range SelfJoin, ApplyUpdates
// classification) must produce results ELEMENT-FOR-ELEMENT identical to
// the serial paths at every thread count, on every dataset shape and under
// EVERY cell layout (rowmajor / morton / hilbert) — the properties that
// make "--threads=N" and "--layout=L" pure performance knobs. Across
// layouts the storage (and therefore emission) order legitimately differs,
// so cross-layout agreement is asserted on sorted results and on
// order-independent observables (pair sets, counter totals, update stats).
// Also unit-tests the static-partition thread pool itself
// (common/parallel.h).
//
// This suite is the intended TSan workload (ctest label "determinism"):
//   cmake -B build-tsan -S . -DSIMSPATIAL_SANITIZE=thread
//   cmake --build build-tsan -j && cd build-tsan && ctest -L determinism

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <vector>

#include "common/bruteforce.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/memgrid.h"
#include "datagen/neuron.h"

namespace simspatial::core {
namespace {

using datagen::GenerateClusteredBoxes;
using datagen::GenerateUniformBoxes;

const AABB kUniverse(Vec3(0, 0, 0), Vec3(100, 100, 100));

// Thread counts the battery sweeps; 0 is the serial reference. 8 on a
// smaller machine oversubscribes the cores, which is exactly the kind of
// scheduling chaos determinism must survive.
const std::uint32_t kThreadCounts[] = {1, 2, 8};

// Cell layouts the battery crosses with the thread counts.
const CellLayout kLayouts[] = {CellLayout::kRowMajor, CellLayout::kMorton,
                               CellLayout::kHilbert};

struct NamedDataset {
  const char* name;
  std::vector<Element> elements;
};

std::vector<NamedDataset> BatteryDatasets() {
  std::vector<NamedDataset> ds;
  ds.push_back({"uniform", GenerateUniformBoxes(4096, kUniverse, 0.1f, 0.8f)});
  ds.push_back({"clustered",
                GenerateClusteredBoxes(4096, kUniverse, 8, 4.0f, 0.1f, 0.6f)});
  // Degenerate: every centre in one cell (cell_size below pins cell (0,0,0)
  // region with the whole population).
  {
    Rng rng(41);
    std::vector<Element> one_cell;
    for (ElementId i = 0; i < 3000; ++i) {
      const Vec3 c(rng.Uniform(0.5f, 3.5f), rng.Uniform(0.5f, 3.5f),
                   rng.Uniform(0.5f, 3.5f));
      one_cell.emplace_back(i, AABB::FromCenterHalfExtent(c, 0.2f));
    }
    ds.push_back({"one-cell", std::move(one_cell)});
  }
  ds.push_back({"empty", {}});
  return ds;
}

// Shard counts the battery crosses with layouts and thread counts; 1 is
// the single-block reference.
const std::uint32_t kShardCounts[] = {1, 2, 3, 8};

MemGrid MakeGrid(const std::vector<Element>& elements, std::uint32_t threads,
                 float cell_size = 4.0f,
                 CellLayout layout = CellLayout::kRowMajor,
                 std::uint32_t shards = 1, std::uint32_t compact = 0) {
  MemGrid g(kUniverse, MemGridConfig{.cell_size = cell_size,
                                     .threads = threads,
                                     .layout = layout,
                                     .shards = shards,
                                     .compact_regions_per_batch = compact});
  g.Build(elements);
  return g;
}

/// MakeGrid with zero layout slack: a gap-free block, which a fresh build
/// streams as ONE contiguous run per shard.
MemGrid MakeGapFreeGrid(const std::vector<Element>& elements,
                        std::uint32_t threads, CellLayout layout,
                        std::uint32_t shards = 1) {
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 4.0f,
                                     .slack_fraction = 0,
                                     .threads = threads,
                                     .layout = layout,
                                     .shards = shards});
  g.Build(elements);
  return g;
}

/// Ids in storage order: a full-universe range query streams the slack-CSR
/// block in cell-region order, so equal outputs mean equal *layouts*, not
/// just equal sets.
std::vector<ElementId> LayoutOrder(const MemGrid& g) {
  std::vector<ElementId> out;
  g.RangeQuery(kUniverse.Inflated(10.0f), &out);
  return out;
}

// --- Thread pool ----------------------------------------------------------

TEST(ThreadPoolTest, RunExecutesEverySlotExactlyOnce) {
  for (const std::size_t slots : {1u, 2u, 5u, 16u}) {
    std::vector<std::atomic<int>> hits(slots);
    for (auto& h : hits) h = 0;
    par::ThreadPool::Global().Run(slots,
                                  [&](std::size_t s) { hits[s].fetch_add(1); });
    for (std::size_t s = 0; s < slots; ++s) {
      EXPECT_EQ(hits[s].load(), 1) << "slot " << s << " of " << slots;
    }
  }
}

TEST(ThreadPoolTest, ParallelChunksCoversRangeExactlyOnce) {
  for (const std::size_t chunks : {1u, 2u, 3u, 8u, 13u}) {
    for (const std::size_t n : {0u, 1u, 7u, 100u, 1047u}) {
      std::vector<std::atomic<int>> seen(n);
      for (auto& s : seen) s = 0;
      par::ParallelChunks(chunks, n,
                          [&](std::size_t, std::size_t b, std::size_t e) {
                            for (std::size_t i = b; i < e; ++i) {
                              seen[i].fetch_add(1);
                            }
                          });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(seen[i].load(), 1)
            << "i=" << i << " chunks=" << chunks << " n=" << n;
      }
    }
  }
}

TEST(ThreadPoolTest, SlotExceptionPropagatesAfterAllSlotsFinish) {
  std::vector<std::atomic<int>> hits(8);
  for (auto& h : hits) h = 0;
  EXPECT_THROW(par::ThreadPool::Global().Run(8,
                                             [&](std::size_t s) {
                                               hits[s].fetch_add(1);
                                               if (s == 3) {
                                                 throw std::runtime_error(
                                                     "slot failure");
                                               }
                                             }),
               std::runtime_error);
  // Run must not unwind until every slot has finished touching `hits`.
  for (std::size_t s = 0; s < hits.size(); ++s) {
    EXPECT_EQ(hits[s].load(), 1) << "slot " << s;
  }
  // The pool stays usable after a failed dispatch.
  std::atomic<int> after{0};
  par::ThreadPool::Global().Run(4, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPoolTest, LaterSlotFailuresAreCountedNotLost) {
  // A local pool, so the process-wide counter of the Global pool (exposed
  // through MemGridShape::pool_suppressed_errors) stays untouched.
  par::ThreadPool pool;
  EXPECT_EQ(pool.total_suppressed_errors(), 0u);
  EXPECT_THROW(pool.Run(6,
                        [&](std::size_t) {
                          throw std::runtime_error("every slot fails");
                        }),
               std::runtime_error);
  // One failure rethrown, the other five at least counted.
  EXPECT_EQ(pool.total_suppressed_errors(), 5u);
}

TEST(ThreadPoolTest, SerialFallbackEngagesAfterRepeatedFailuresAndHeals) {
  par::ThreadPool pool;
  for (std::size_t i = 0; i < par::ThreadPool::kSerialFallbackThreshold;
       ++i) {
    EXPECT_FALSE(pool.serial_fallback_active());
    EXPECT_THROW(pool.Run(4,
                          [&](std::size_t s) {
                            if (s == 0) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
  }
  EXPECT_TRUE(pool.serial_fallback_active());
  // Degraded dispatch still runs every slot (on the calling thread) with
  // the same error semantics...
  const auto self = std::this_thread::get_id();
  std::vector<int> hits(4, 0);
  bool all_on_caller = true;
  pool.Run(4, [&](std::size_t s) {
    hits[s] += 1;
    all_on_caller = all_on_caller && std::this_thread::get_id() == self;
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_TRUE(all_on_caller);
  // ...and one clean dispatch heals the pool back to parallel fan-out.
  EXPECT_FALSE(pool.serial_fallback_active());
}

TEST(ThreadPoolTest, ChunkCountRespectsGrainAndBounds) {
  EXPECT_EQ(par::ChunkCount(0, 10000, 100), 1u);
  EXPECT_EQ(par::ChunkCount(1, 10000, 100), 1u);
  EXPECT_EQ(par::ChunkCount(8, 0, 100), 1u);
  EXPECT_EQ(par::ChunkCount(8, 10000, 1024), 8u);
  EXPECT_EQ(par::ChunkCount(8, 3000, 1024), 2u);   // grain-limited
  EXPECT_EQ(par::ChunkCount(8, 1000, 1024), 1u);   // below one grain
  EXPECT_EQ(par::ChunkCount(4, 100, 1), 4u);
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(par::ResolveThreads(0), 0u);
  EXPECT_EQ(par::ResolveThreads(3), 3u);
  EXPECT_GE(par::ResolveThreads(par::kThreadsAuto), 1u);
}

// --- Build determinism ----------------------------------------------------

TEST(ParallelDeterminismTest, BuildLayoutIdenticalAcrossThreadCounts) {
  for (const NamedDataset& ds : BatteryDatasets()) {
    // Cross-layout reference: the rowmajor serial build's element SET.
    const std::vector<ElementId> want_sorted = [&] {
      auto ids = LayoutOrder(MakeGrid(ds.elements, 0));
      std::sort(ids.begin(), ids.end());
      return ids;
    }();
    for (const CellLayout layout : kLayouts) {
      // Within a layout, the parallel build must reproduce the serial
      // build's layout BYTES (LayoutOrder streams the block in storage
      // order, so equal outputs mean equal layouts).
      const MemGrid serial = MakeGapFreeGrid(ds.elements, 0, layout);
      const std::vector<ElementId> want = LayoutOrder(serial);
      const MemGridShape want_shape = serial.Shape();
      EXPECT_EQ(want_shape.layout, layout) << ds.name;
      // Gap-free profile fresh from Build: ONE contiguous stream covers
      // the universe, whatever the rank order.
      EXPECT_EQ(want_shape.layout_runs, ds.elements.empty() ? 0u : 1u)
          << ds.name << " layout=" << ToString(layout);
      {
        auto sorted = want;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, want_sorted)
            << ds.name << " layout=" << ToString(layout)
            << ": layouts must hold the same element set";
      }
      for (const std::uint32_t t : kThreadCounts) {
        const MemGrid g = MakeGapFreeGrid(ds.elements, t, layout);
        std::string err;
        ASSERT_TRUE(g.CheckInvariants(&err))
            << ds.name << " layout=" << ToString(layout) << " t=" << t
            << ": " << err;
        EXPECT_EQ(LayoutOrder(g), want)
            << ds.name << " layout=" << ToString(layout) << " t=" << t;
        const MemGridShape shape = g.Shape();
        EXPECT_EQ(shape.occupied_cells, want_shape.occupied_cells)
            << ds.name << " t=" << t;
        EXPECT_EQ(shape.slack_slots, want_shape.slack_slots)
            << ds.name << " t=" << t;
        EXPECT_EQ(shape.max_half_extent, want_shape.max_half_extent)
            << ds.name << " t=" << t;
        EXPECT_EQ(shape.layout_runs, want_shape.layout_runs)
            << ds.name << " t=" << t;
      }
    }
  }
}

// Shape()/CheckInvariants layout observability: a fresh gap-free build is
// ONE contiguous stream in pristine rank order; a forced region relocation
// splits the stream (observable via layout_runs) without breaking any
// structural invariant; a slacked build streams one run per occupied cell
// because per-cell slack breaks storage adjacency.
TEST(ParallelDeterminismTest, LayoutRunsAndPristineOrderObservable) {
  const auto elems = GenerateUniformBoxes(2048, kUniverse, 0.1f, 0.6f);
  for (const CellLayout layout : kLayouts) {
    MemGrid g = MakeGapFreeGrid(elems, 0, layout);
    EXPECT_EQ(g.Shape().layout, layout);
    EXPECT_EQ(g.Shape().layout_runs, 1u) << ToString(layout);
    std::string err;
    ASSERT_TRUE(g.CheckInvariants(&err)) << ToString(layout) << ": " << err;
    // Gap-free regions have no slack, so this insert relocates its
    // destination region to the block tail (id 2048 = one past the
    // generated dense id range — no slot-map blowup).
    g.Insert(Element(2048, AABB::FromCenterHalfExtent(
                               Vec3(50.0f, 50.0f, 50.0f), 0.3f)));
    ASSERT_TRUE(g.CheckInvariants(&err)) << ToString(layout) << ": " << err;
    EXPECT_GT(g.Shape().layout_runs, 1u) << ToString(layout);

    MemGrid padded(kUniverse, MemGridConfig{.cell_size = 4.0f,
                                            .min_slack = 2,
                                            .threads = 0,
                                            .layout = layout});
    padded.Build(elems);
    const MemGridShape s = padded.Shape();
    EXPECT_EQ(s.layout_runs, s.occupied_cells) << ToString(layout);
    ASSERT_TRUE(padded.CheckInvariants(&err)) << ToString(layout) << ": "
                                              << err;
  }
}

TEST(ParallelDeterminismTest, RangeAndKnnIdenticalAfterParallelBuild) {
  for (const NamedDataset& ds : BatteryDatasets()) {
    const MemGrid rowmajor_serial = MakeGrid(ds.elements, 0);
    for (const CellLayout layout : kLayouts) {
      const MemGrid serial = MakeGrid(ds.elements, 0, 4.0f, layout);
      for (const std::uint32_t t : kThreadCounts) {
        const MemGrid g = MakeGrid(ds.elements, t, 4.0f, layout);
        Rng rng(57);
        for (int q = 0; q < 20; ++q) {
          const AABB query = AABB::FromCenterHalfExtent(
              rng.PointIn(kUniverse), rng.Uniform(0.5f, 12.0f));
          std::vector<ElementId> got, want, rowmajor_want;
          g.RangeQuery(query, &got);
          serial.RangeQuery(query, &want);
          ASSERT_EQ(got, want)
              << ds.name << " layout=" << ToString(layout) << " t=" << t
              << " q" << q;
          // Across layouts only the emission order may differ.
          rowmajor_serial.RangeQuery(query, &rowmajor_want);
          std::sort(got.begin(), got.end());
          std::sort(rowmajor_want.begin(), rowmajor_want.end());
          ASSERT_EQ(got, rowmajor_want)
              << ds.name << " layout=" << ToString(layout) << " t=" << t
              << " q" << q;
        }
        for (int q = 0; q < 10; ++q) {
          const Vec3 p = rng.PointIn(kUniverse);
          std::vector<ElementId> got, want, rowmajor_want;
          g.KnnQuery(p, 9, &got);
          serial.KnnQuery(p, 9, &want);
          ASSERT_EQ(got, want)
              << ds.name << " layout=" << ToString(layout) << " t=" << t
              << " q" << q;
          // kNN output is distance-ordered (ties by id) — identical
          // ELEMENT-FOR-ELEMENT across layouts, not just as a set.
          rowmajor_serial.KnnQuery(p, 9, &rowmajor_want);
          ASSERT_EQ(got, rowmajor_want)
              << ds.name << " layout=" << ToString(layout) << " t=" << t
              << " q" << q;
        }
      }
    }
  }
}

// --- SelfJoin determinism -------------------------------------------------

TEST(ParallelDeterminismTest, SelfJoinPairsAndCountersIdentical) {
  for (const NamedDataset& ds : BatteryDatasets()) {
    // Cross-layout references (rowmajor serial): the sorted pair set and
    // the counter totals are layout-independent — every layout enumerates
    // the same cell pairs, only in a different order.
    for (const float eps : {0.0f, 0.5f}) {
      std::vector<std::pair<ElementId, ElementId>> rowmajor_sorted;
      QueryCounters rowmajor_c;
      MakeGrid(ds.elements, 0).SelfJoin(eps, &rowmajor_sorted, &rowmajor_c);
      SortPairs(&rowmajor_sorted);
      for (const CellLayout layout : kLayouts) {
        const MemGrid serial = MakeGrid(ds.elements, 0, 4.0f, layout);
        std::vector<std::pair<ElementId, ElementId>> want;
        QueryCounters want_c;
        serial.SelfJoin(eps, &want, &want_c);
        {
          auto sorted = want;
          SortPairs(&sorted);
          ASSERT_EQ(sorted, rowmajor_sorted)
              << ds.name << " layout=" << ToString(layout)
              << " eps=" << eps;
          EXPECT_EQ(want_c.element_tests, rowmajor_c.element_tests)
              << ds.name << " layout=" << ToString(layout);
          EXPECT_EQ(want_c.nodes_visited, rowmajor_c.nodes_visited)
              << ds.name << " layout=" << ToString(layout);
          EXPECT_EQ(want_c.results, rowmajor_c.results)
              << ds.name << " layout=" << ToString(layout);
        }
        for (const std::uint32_t t : kThreadCounts) {
          const MemGrid g = MakeGrid(ds.elements, t, 4.0f, layout);
          std::vector<std::pair<ElementId, ElementId>> got;
          QueryCounters got_c;
          g.SelfJoin(eps, &got, &got_c);
          // Element-for-element: parallel rank ranges must reproduce the
          // serial emission ORDER, not just the pair set.
          ASSERT_EQ(got, want) << ds.name << " layout=" << ToString(layout)
                               << " t=" << t << " eps=" << eps;
          EXPECT_EQ(got_c.element_tests, want_c.element_tests)
              << ds.name << " layout=" << ToString(layout) << " t=" << t;
          EXPECT_EQ(got_c.nodes_visited, want_c.nodes_visited)
              << ds.name << " layout=" << ToString(layout) << " t=" << t;
          EXPECT_EQ(got_c.results, want_c.results)
              << ds.name << " layout=" << ToString(layout) << " t=" << t;
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, SelfJoinMatchesBruteForce) {
  const auto elems = GenerateUniformBoxes(2000, kUniverse, 0.2f, 0.8f);
  for (const float eps : {0.0f, 0.5f}) {
    // The O(n^2) reference depends only on eps — hoist it out of the
    // layout x thread sweep.
    auto want = NestedLoopSelfJoin(elems, eps);
    SortPairs(&want);
    for (const CellLayout layout : kLayouts) {
      for (const std::uint32_t t : kThreadCounts) {
        const MemGrid g = MakeGrid(elems, t, /*cell_size=*/2.5f, layout);
        std::vector<std::pair<ElementId, ElementId>> got;
        g.SelfJoin(eps, &got);
        SortPairs(&got);
        EXPECT_EQ(got, want) << "layout=" << ToString(layout) << " t=" << t
                             << " eps=" << eps;
      }
    }
  }
}

// Regression for the widened-reach path (cell_size < 2*max_half_extent +
// eps): matching centres can sit several cells — and therefore several
// worker RANK RANGES — apart, so the partitioning must still assign each
// cross-range pair to exactly one origin cell. Under the curve layouts a
// range boundary can additionally cut straight through a lattice
// neighbourhood, which is exactly what this guards. 3000 elements keeps
// the widened sweep cheaper than the all-pairs fallback, so the rank-range
// path itself runs.
TEST(ParallelDeterminismTest, WidenedReachEmitsCrossRangePairsExactlyOnce) {
  Rng rng(85);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 3000; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                     rng.Uniform(0.5f, 3.0f)));
  }
  for (const float eps : {0.0f, 1.0f}) {
    // The O(n^2) reference depends only on eps — hoist it out of the
    // layout x thread sweep.
    auto brute = NestedLoopSelfJoin(elems, eps);
    SortPairs(&brute);
    for (const CellLayout layout : kLayouts) {
      const MemGrid serial = MakeGrid(elems, 0, /*cell_size=*/2.0f, layout);
      std::vector<std::pair<ElementId, ElementId>> want;
      serial.SelfJoin(eps, &want);
      for (const std::uint32_t t : kThreadCounts) {
        const MemGrid g = MakeGrid(elems, t, /*cell_size=*/2.0f, layout);
        std::vector<std::pair<ElementId, ElementId>> got;
        g.SelfJoin(eps, &got);
        ASSERT_EQ(got, want) << "layout=" << ToString(layout) << " t=" << t
                             << " eps=" << eps;
        // Exactly once: no duplicates even among pairs whose cells
        // straddle a worker boundary.
        auto sorted = got;
        SortPairs(&sorted);
        ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                  sorted.end())
            << "duplicate pair at layout=" << ToString(layout)
            << " t=" << t << " eps=" << eps;
        ASSERT_EQ(sorted, brute) << "layout=" << ToString(layout)
                                 << " t=" << t << " eps=" << eps;
      }
    }
  }
}

// --- ApplyUpdates determinism --------------------------------------------

std::vector<ElementUpdate> SeededUpdateBatch(std::vector<Element>* mirror,
                                             Rng* rng) {
  std::vector<ElementUpdate> batch;
  for (Element& e : *mirror) {
    const float dice = rng->NextFloat();
    if (dice < 0.6f) {
      // In-place nudge.
      e.box = e.box.Translated(Vec3(rng->Normal(0, 0.05f),
                                    rng->Normal(0, 0.05f),
                                    rng->Normal(0, 0.05f)));
    } else {
      // Teleport: forces a migration (and region slack churn).
      e.box = AABB::FromCenterHalfExtent(rng->PointIn(kUniverse),
                                         rng->Uniform(0.1f, 0.9f));
    }
    batch.emplace_back(e.id, e.box);
  }
  // Same id twice in one batch (staged-overwrite path) + an unknown id.
  if (!mirror->empty()) {
    Element& dup = (*mirror)[mirror->size() / 2];
    dup.box = AABB::FromCenterHalfExtent(rng->PointIn(kUniverse), 0.4f);
    batch.emplace_back(dup.id, dup.box);
  }
  batch.emplace_back(kInvalidElement, AABB::FromCenterHalfExtent(
                                          Vec3(1, 1, 1), 0.1f));
  return batch;
}

TEST(ParallelDeterminismTest, ApplyUpdatesIdenticalAcrossThreadCounts) {
  const auto elems = GenerateUniformBoxes(4096, kUniverse, 0.1f, 0.8f);
  // Drive, per layout, the serial reference and each thread count through
  // the SAME seeded three-round batch stream; every structural observable
  // must match after every round. The update stats are additionally
  // layout-independent (migration/relayout decisions depend only on cell
  // membership and capacity, never on rank order), so each layout's final
  // stats must agree with rowmajor's.
  MemGridUpdateStats rowmajor_stats;
  for (const CellLayout layout : kLayouts) {
    MemGrid serial = MakeGrid(elems, 0, 4.0f, layout);
    std::vector<MemGrid> grids;
    for (const std::uint32_t t : kThreadCounts) {
      grids.push_back(MakeGrid(elems, t, 4.0f, layout));
    }
    std::vector<Element> mirror = elems;
    Rng rng(99);
    for (int round = 0; round < 3; ++round) {
      // One batch per round; every grid sees the identical batch.
      const auto batch = SeededUpdateBatch(&mirror, &rng);
      const std::size_t want_applied = serial.ApplyUpdates(batch);
      const std::vector<ElementId> want_layout = LayoutOrder(serial);
      const MemGridUpdateStats& ws = serial.update_stats();
      for (std::size_t gi = 0; gi < grids.size(); ++gi) {
        MemGrid& g = grids[gi];
        EXPECT_EQ(g.ApplyUpdates(batch), want_applied)
            << "layout=" << ToString(layout) << " t=" << kThreadCounts[gi]
            << " round " << round;
        std::string err;
        ASSERT_TRUE(g.CheckInvariants(&err))
            << "layout=" << ToString(layout) << " t=" << kThreadCounts[gi]
            << " round " << round << ": " << err;
        ASSERT_EQ(LayoutOrder(g), want_layout)
            << "layout=" << ToString(layout) << " t=" << kThreadCounts[gi]
            << " round " << round;
        const MemGridUpdateStats& s = g.update_stats();
        EXPECT_EQ(s.updates, ws.updates) << "t=" << kThreadCounts[gi];
        EXPECT_EQ(s.in_place, ws.in_place) << "t=" << kThreadCounts[gi];
        EXPECT_EQ(s.migrations, ws.migrations) << "t=" << kThreadCounts[gi];
        EXPECT_EQ(s.relayouts, ws.relayouts) << "t=" << kThreadCounts[gi];
      }
    }
    if (layout == CellLayout::kRowMajor) {
      rowmajor_stats = serial.update_stats();
    } else {
      const MemGridUpdateStats& s = serial.update_stats();
      EXPECT_EQ(s.updates, rowmajor_stats.updates)
          << "layout=" << ToString(layout);
      EXPECT_EQ(s.in_place, rowmajor_stats.in_place)
          << "layout=" << ToString(layout);
      EXPECT_EQ(s.migrations, rowmajor_stats.migrations)
          << "layout=" << ToString(layout);
      EXPECT_EQ(s.relayouts, rowmajor_stats.relayouts)
          << "layout=" << ToString(layout);
    }
    // End state must also agree with brute force, not merely with itself.
    Rng qrng(100);
    for (int q = 0; q < 20; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(qrng.PointIn(kUniverse),
                                                    qrng.Uniform(1.0f, 10.0f));
      std::vector<ElementId> got;
      serial.RangeQuery(query, &got);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, ScanRange(mirror, query))
          << "layout=" << ToString(layout) << " q" << q;
    }
  }
}

// --- Shard determinism ----------------------------------------------------
// The rank-sharded entry blocks are a pure storage knob: every observable
// result (full-scan emission order, range/knn outputs, self-join pairs AND
// counters, ApplyUpdates stats) must be identical across shard counts,
// thread counts and layouts. The single-block serial grid is the reference.

TEST(ShardDeterminismTest, BuildAndQueriesIdenticalAcrossShardCounts) {
  for (const NamedDataset& ds : BatteryDatasets()) {
    for (const CellLayout layout : kLayouts) {
      const MemGrid reference = MakeGrid(ds.elements, 0, 4.0f, layout);
      const std::vector<ElementId> want = LayoutOrder(reference);
      for (const std::uint32_t shards : kShardCounts) {
        for (const std::uint32_t t : {0u, 2u, 8u}) {
          const MemGrid g = MakeGrid(ds.elements, t, 4.0f, layout, shards);
          std::string err;
          ASSERT_TRUE(g.CheckInvariants(&err))
              << ds.name << " layout=" << ToString(layout)
              << " shards=" << shards << " t=" << t << ": " << err;
          EXPECT_EQ(g.Shape().shards, shards);
          // A fresh gap-free multi-shard build streams as one run per
          // occupied shard (blocks are separate allocations).
          EXPECT_LE(MakeGapFreeGrid(ds.elements, t, layout, shards)
                        .Shape()
                        .layout_runs,
                    shards);
          // Emission order of a full scan is the rank order — independent
          // of where shard boundaries fall.
          ASSERT_EQ(LayoutOrder(g), want)
              << ds.name << " layout=" << ToString(layout)
              << " shards=" << shards << " t=" << t;
          Rng rng(58);
          for (int q = 0; q < 12; ++q) {
            const AABB query = AABB::FromCenterHalfExtent(
                rng.PointIn(kUniverse), rng.Uniform(0.5f, 12.0f));
            std::vector<ElementId> got, ref;
            g.RangeQuery(query, &got);
            reference.RangeQuery(query, &ref);
            ASSERT_EQ(got, ref)
                << ds.name << " layout=" << ToString(layout)
                << " shards=" << shards << " t=" << t << " q" << q;
          }
          for (int q = 0; q < 6; ++q) {
            const Vec3 p = rng.PointIn(kUniverse);
            std::vector<ElementId> got, ref;
            g.KnnQuery(p, 9, &got);
            reference.KnnQuery(p, 9, &ref);
            ASSERT_EQ(got, ref)
                << ds.name << " layout=" << ToString(layout)
                << " shards=" << shards << " t=" << t << " q" << q;
          }
        }
      }
    }
  }
}

TEST(ShardDeterminismTest, SelfJoinIdenticalAcrossShardCounts) {
  for (const NamedDataset& ds : BatteryDatasets()) {
    for (const float eps : {0.0f, 0.5f}) {
      for (const CellLayout layout : kLayouts) {
        std::vector<std::pair<ElementId, ElementId>> want;
        QueryCounters want_c;
        MakeGrid(ds.elements, 0, 4.0f, layout).SelfJoin(eps, &want, &want_c);
        for (const std::uint32_t shards : kShardCounts) {
          for (const std::uint32_t t : {0u, 8u}) {
            const MemGrid g = MakeGrid(ds.elements, t, 4.0f, layout, shards);
            std::vector<std::pair<ElementId, ElementId>> got;
            QueryCounters got_c;
            g.SelfJoin(eps, &got, &got_c);
            // Element-for-element: sweeping origin cells in rank order
            // makes the emission independent of the shard partition.
            ASSERT_EQ(got, want)
                << ds.name << " layout=" << ToString(layout)
                << " shards=" << shards << " t=" << t << " eps=" << eps;
            EXPECT_EQ(got_c.element_tests, want_c.element_tests);
            EXPECT_EQ(got_c.nodes_visited, want_c.nodes_visited);
            EXPECT_EQ(got_c.results, want_c.results);
          }
        }
      }
    }
  }
}

TEST(ShardDeterminismTest, ApplyUpdatesIdenticalAcrossShardsAndCompaction) {
  const auto elems = GenerateUniformBoxes(4096, kUniverse, 0.1f, 0.8f);
  struct Config {
    std::uint32_t shards;
    std::uint32_t compact;
    std::uint32_t threads;
  };
  // Shards x incremental-compaction x threads, against the single-block
  // serial reference. A tiny budget (4) keeps passes IN FLIGHT across
  // rounds, so the two-block reads (fresh below the cursor, block above)
  // are exercised by every query and invariant check below.
  const Config kConfigs[] = {{1, 0, 8},  {2, 0, 0}, {8, 0, 8},
                             {2, 4, 0},  {8, 4, 8}, {8, 256, 0},
                             {1, 16, 0}};
  for (const CellLayout layout : kLayouts) {
    MemGrid reference = MakeGrid(elems, 0, 4.0f, layout);
    std::vector<MemGrid> grids;
    for (const Config& c : kConfigs) {
      grids.push_back(
          MakeGrid(elems, c.threads, 4.0f, layout, c.shards, c.compact));
    }
    std::vector<Element> mirror = elems;
    Rng rng(99);
    bool saw_compacting = false;
    for (int round = 0; round < 4; ++round) {
      const auto batch = SeededUpdateBatch(&mirror, &rng);
      const std::size_t want_applied = reference.ApplyUpdates(batch);
      const std::vector<ElementId> want_layout = LayoutOrder(reference);
      const MemGridUpdateStats& ws = reference.update_stats();
      for (std::size_t gi = 0; gi < grids.size(); ++gi) {
        MemGrid& g = grids[gi];
        const auto label = [&] {
          return std::string("layout=") + ToString(layout) + " shards=" +
                 std::to_string(kConfigs[gi].shards) + " compact=" +
                 std::to_string(kConfigs[gi].compact) + " t=" +
                 std::to_string(kConfigs[gi].threads) + " round " +
                 std::to_string(round);
        };
        EXPECT_EQ(g.ApplyUpdates(batch), want_applied) << label();
        std::string err;
        ASSERT_TRUE(g.CheckInvariants(&err)) << label() << ": " << err;
        // The full-scan emission order is invariant under sharding AND
        // under a mid-flight compaction pass (copies preserve region
        // content order; emission follows rank order).
        ASSERT_EQ(LayoutOrder(g), want_layout) << label();
        const MemGridUpdateStats& s = g.update_stats();
        // Classification is storage-independent; only relayout/compaction
        // counters may differ across shard counts and budgets.
        EXPECT_EQ(s.updates, ws.updates) << label();
        EXPECT_EQ(s.in_place, ws.in_place) << label();
        EXPECT_EQ(s.migrations, ws.migrations) << label();
        saw_compacting |= g.Shape().compacting_shards > 0;
      }
    }
    // The tiny-budget configs must actually have been caught mid-pass at
    // least once, or the two-block read path went untested.
    EXPECT_TRUE(saw_compacting) << ToString(layout);
    // End state agrees with brute force, not merely with itself.
    Rng qrng(100);
    for (int q = 0; q < 12; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          qrng.PointIn(kUniverse), qrng.Uniform(1.0f, 10.0f));
      std::vector<ElementId> got;
      grids.back().RangeQuery(query, &got);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, ScanRange(mirror, query))
          << "layout=" << ToString(layout) << " q" << q;
    }
  }
}

TEST(ShardDeterminismTest, IncrementalCompactionReclaimsChurnWithoutRelayout) {
  // Teleport-heavy churn on a sharded grid with a healthy budget: passes
  // must complete (compaction_passes > 0), no stop-the-shard re-layout may
  // ever fire, waste must stay bounded, and queries must stay exact
  // throughout — including while shards are mid-pass.
  const std::size_t n = 20000;
  auto mirror = GenerateUniformBoxes(n, kUniverse, 0.05f, 0.4f);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 2.0f,
                                     .threads = 0,
                                     .shards = 4,
                                     .compact_regions_per_batch = 512});
  g.Build(mirror);
  Rng rng(71);
  std::vector<ElementUpdate> batch;
  for (int round = 0; round < 60; ++round) {
    batch.clear();
    for (Element& e : mirror) {
      if (rng.NextFloat() < 0.05f) {
        e.box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                           rng.Uniform(0.05f, 0.4f));
      } else {
        e.box = e.box.Translated(Vec3(rng.Normal(0, 0.02f),
                                      rng.Normal(0, 0.02f),
                                      rng.Normal(0, 0.02f)));
      }
      batch.emplace_back(e.id, e.box);
    }
    ASSERT_EQ(g.ApplyUpdates(batch), batch.size()) << "round " << round;
    if (round % 10 == 9) {
      std::string err;
      ASSERT_TRUE(g.CheckInvariants(&err)) << "round " << round << ": "
                                           << err;
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(kUniverse), rng.Uniform(2.0f, 10.0f));
      std::vector<ElementId> got;
      g.RangeQuery(query, &got);
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, ScanRange(mirror, query)) << "round " << round;
    }
  }
  EXPECT_GT(g.update_stats().compaction_passes, 0u);
  EXPECT_EQ(g.update_stats().relayouts, 0u);
  const MemGridShape shape = g.Shape();
  // Incremental reclamation keeps dead+slack waste proportional to the
  // population instead of letting churn grow the blocks unboundedly.
  EXPECT_LT(shape.dead_slots + shape.slack_slots, 5 * n);
}

// --- Batch query engine determinism ---------------------------------------
// RangeQueryBatch / KnnQueryBatch are a pure THROUGHPUT knob: slot i must
// be bit-identical (ids AND emission order) to the per-probe call on the
// same grid, and the batch counters must sum to the per-probe totals —
// whatever the layout, shard count, worker-thread count, decomposition or
// mid-compaction state, and whatever the rank-ordered schedule (duplicate
// reuse included) did internally.

/// Probe set exercising the scheduler's interesting cases: a spread of
/// ordinary probes across the rank space, exact duplicates (the reuse
/// path), rank ties that are NOT duplicates, and degenerate boxes.
std::vector<AABB> BatchRangeProbes() {
  Rng rng(63);
  std::vector<AABB> probes;
  for (int i = 0; i < 48; ++i) {
    probes.push_back(AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                rng.Uniform(0.5f, 12.0f)));
  }
  // Exact duplicates of earlier probes, scattered so the schedule (not the
  // arrival order) has to bring them together.
  probes.push_back(probes[5]);
  probes.push_back(probes[20]);
  probes.push_back(probes[5]);
  // Same center cell, different extent: shares the schedule rank with its
  // sibling but must NOT take the duplicate-reuse path.
  probes.push_back(probes[7].Inflated(1.5f));
  // Degenerates: zero-volume plane, a point, an inverted (empty) box and
  // an out-of-universe probe.
  probes.push_back(AABB(Vec3(10, 0, 10), Vec3(10, 100, 90)));
  probes.push_back(AABB::FromPoint(Vec3(50, 50, 50)));
  probes.push_back(AABB(Vec3(60, 60, 60), Vec3(40, 40, 40)));
  probes.push_back(AABB::FromCenterHalfExtent(Vec3(500, 500, 500), 5.0f));
  return probes;
}

std::vector<Vec3> BatchKnnPoints() {
  Rng rng(64);
  std::vector<Vec3> points;
  for (int i = 0; i < 40; ++i) points.push_back(rng.PointIn(kUniverse));
  points.push_back(points[3]);  // duplicate (reuse path)
  points.push_back(points[11]);
  points.push_back(Vec3(-20, 50, 130));  // out of universe
  return points;
}

/// Per-grid bit-identity: batch vs the per-probe loop on the same grid.
void ExpectBatchMatchesPerProbe(const MemGrid& g, const std::string& label) {
  const auto probes = BatchRangeProbes();
  std::vector<std::vector<ElementId>> want_slots(probes.size());
  QueryCounters want_c;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    g.RangeQuery(probes[i], &want_slots[i], &want_c);
  }
  std::vector<std::vector<ElementId>> got_slots;
  QueryCounters got_c;
  g.RangeQueryBatch(probes, &got_slots, &got_c);
  ASSERT_EQ(got_slots.size(), probes.size()) << label;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(got_slots[i], want_slots[i]) << label << " range slot " << i;
  }
  EXPECT_EQ(got_c, want_c) << label << " range counters";

  // The counting kernel rides the same schedule: per-probe counts AND the
  // returned sum must match the per-probe RangeQueryCount loop (which in
  // turn equals the materializing slots, asserted by its own battery).
  std::vector<std::size_t> want_counts(probes.size());
  std::size_t want_total = 0;
  QueryCounters want_cc;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    want_counts[i] = g.RangeQueryCount(probes[i], &want_cc);
    want_total += want_counts[i];
  }
  std::vector<std::size_t> got_counts;
  QueryCounters got_cc;
  const std::size_t got_total =
      g.RangeQueryCountBatch(probes, &got_counts, &got_cc);
  ASSERT_EQ(got_counts, want_counts) << label << " count slots";
  EXPECT_EQ(got_total, want_total) << label << " count total";
  EXPECT_EQ(got_cc, want_cc) << label << " count counters";

  const auto points = BatchKnnPoints();
  std::vector<std::vector<ElementId>> want_knn(points.size());
  QueryCounters want_kc;
  for (std::size_t i = 0; i < points.size(); ++i) {
    g.KnnQuery(points[i], 9, &want_knn[i], &want_kc);
  }
  std::vector<std::vector<ElementId>> got_knn;
  QueryCounters got_kc;
  g.KnnQueryBatch(points, 9, &got_knn, &got_kc);
  ASSERT_EQ(got_knn.size(), points.size()) << label;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(got_knn[i], want_knn[i]) << label << " knn slot " << i;
  }
  EXPECT_EQ(got_kc, want_kc) << label << " knn counters";
}

TEST(BatchDeterminismTest, BatchIdenticalToPerProbeAcrossConfigs) {
  struct Config {
    std::uint32_t shards;
    std::uint32_t threads;
  };
  const Config kConfigs[] = {{1, 0}, {1, 2}, {1, 8}, {5, 0}, {5, 2}, {5, 8}};
  for (const NamedDataset& ds : BatteryDatasets()) {
    for (const CellLayout layout : kLayouts) {
      // Cross-grid reference: the serial single-block grid's batch output.
      // Batch results must equal the per-probe path on EVERY grid, and the
      // per-probe path is already pinned across configs by the batteries
      // above, so the batch output is transitively config-invariant — but
      // assert it directly too, against slots from the reference grid.
      const MemGrid reference = MakeGrid(ds.elements, 0, 4.0f, layout);
      std::vector<std::vector<ElementId>> ref_slots;
      reference.RangeQueryBatch(BatchRangeProbes(), &ref_slots);
      for (const Config& c : kConfigs) {
        const std::string label =
            std::string(ds.name) + " layout=" + ToString(layout) +
            " shards=" + std::to_string(c.shards) +
            " t=" + std::to_string(c.threads);
        const MemGrid g =
            MakeGrid(ds.elements, c.threads, 4.0f, layout, c.shards);
        ExpectBatchMatchesPerProbe(g, label);
        std::vector<std::vector<ElementId>> got_slots;
        g.RangeQueryBatch(BatchRangeProbes(), &got_slots);
        ASSERT_EQ(got_slots, ref_slots) << label << " vs reference grid";
      }
    }
  }
}

TEST(BatchDeterminismTest, BatchIdenticalMidCompaction) {
  const auto elems = GenerateUniformBoxes(4096, kUniverse, 0.1f, 0.8f);
  // Tiny compaction budget + churn keeps passes in flight, so the batch
  // schedule reads shards through the two-block (fresh-below-cursor)
  // state; threads 8 exercises the batch fan-out on top.
  struct Config {
    std::uint32_t shards;
    std::uint32_t compact;
    std::uint32_t threads;
  };
  const Config kConfigs[] = {{5, 4, 0}, {5, 4, 8}, {8, 4, 2}};
  for (const CellLayout layout : kLayouts) {
    MemGrid reference = MakeGrid(elems, 0, 4.0f, layout);
    std::vector<MemGrid> grids;
    for (const Config& c : kConfigs) {
      grids.push_back(
          MakeGrid(elems, c.threads, 4.0f, layout, c.shards, c.compact));
    }
    std::vector<Element> mirror = elems;
    Rng rng(99);
    bool saw_compacting = false;
    for (int round = 0; round < 3; ++round) {
      const auto batch = SeededUpdateBatch(&mirror, &rng);
      reference.ApplyUpdates(batch);
      for (std::size_t gi = 0; gi < grids.size(); ++gi) {
        MemGrid& g = grids[gi];
        g.ApplyUpdates(batch);
        saw_compacting |= g.Shape().compacting_shards > 0;
        const std::string label =
            std::string("layout=") + ToString(layout) + " shards=" +
            std::to_string(kConfigs[gi].shards) + " compact=" +
            std::to_string(kConfigs[gi].compact) + " t=" +
            std::to_string(kConfigs[gi].threads) + " round " +
            std::to_string(round);
        ExpectBatchMatchesPerProbe(g, label);
        // And against the un-sharded, un-compacting reference grid.
        std::vector<std::vector<ElementId>> got, want;
        g.RangeQueryBatch(BatchRangeProbes(), &got);
        reference.RangeQueryBatch(BatchRangeProbes(), &want);
        ASSERT_EQ(got, want) << label << " vs reference grid";
      }
    }
    // The tiny-budget configs must actually have been caught mid-pass, or
    // the batch-over-two-block-reads path went untested.
    EXPECT_TRUE(saw_compacting) << ToString(layout);
  }
}

}  // namespace
}  // namespace simspatial::core
