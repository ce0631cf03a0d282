// MemGrid and the registry-wide differential battery: every registered
// index must agree with brute force on every dataset shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "common/bruteforce.h"
#include "common/rng.h"
#include "core/memgrid.h"
#include "core/spatial_index.h"
#include "datagen/neuron.h"
#include "datagen/plasticity.h"
#include "grid/resolution.h"

namespace simspatial::core {
namespace {

using datagen::GenerateClusteredBoxes;
using datagen::GenerateUniformBoxes;

const AABB kUniverse(Vec3(0, 0, 0), Vec3(100, 100, 100));

std::vector<ElementId> Sorted(std::vector<ElementId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// --- MemGrid ------------------------------------------------------------

TEST(MemGridTest, EmptyGrid) {
  MemGrid g(kUniverse);
  std::vector<ElementId> out;
  g.RangeQuery(kUniverse, &out);
  EXPECT_TRUE(out.empty());
  g.KnnQuery(Vec3(0, 0, 0), 5, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(g.CheckInvariants(nullptr));
}

TEST(MemGridTest, RangeAndKnnDifferential) {
  const auto elems = GenerateClusteredBoxes(6000, kUniverse, 10, 5.0f, 0.1f,
                                            0.8f);
  MemGridConfig cfg;
  cfg.cell_size = 3.0f;
  MemGrid g(kUniverse, cfg);
  g.Build(elems);
  std::string err;
  ASSERT_TRUE(g.CheckInvariants(&err)) << err;
  Rng rng(81);
  for (int q = 0; q < 40; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(kUniverse), rng.Uniform(0.5f, 12.0f));
    std::vector<ElementId> got;
    g.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(elems, query)) << "q" << q;
  }
  for (int q = 0; q < 20; ++q) {
    const Vec3 p = rng.PointIn(kUniverse);
    std::vector<ElementId> got;
    g.KnnQuery(p, 12, &got);
    EXPECT_EQ(got, ScanKnn(elems, p, 12)) << "q" << q;
  }
}

TEST(MemGridTest, MixedElementSizesStayExact) {
  // Large elements stress the probe-inflation completeness bound.
  Rng rng(82);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 3000; ++i) {
    const float half = (i % 25 == 0) ? 8.0f : 0.2f;
    elems.emplace_back(
        i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse), half));
  }
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 4.0f});
  g.Build(elems);
  for (int q = 0; q < 30; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(kUniverse), rng.Uniform(0.5f, 6.0f));
    std::vector<ElementId> got;
    g.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(elems, query)) << "q" << q;
  }
}

TEST(MemGridTest, PlasticityUpdatesAreOverwhelminglyInPlace) {
  // The §4.3/§5 headline: with paper-calibrated displacements, almost no
  // update changes cell.
  auto ds = datagen::GenerateNeuronsWithSize(20000);
  MemGridConfig cfg;
  cfg.cell_size = 5.0f;
  MemGrid g(ds.universe, cfg);
  g.Build(ds.elements);
  datagen::PlasticityConfig pcfg;  // 0.04 µm mean displacement.
  datagen::PlasticityModel model(pcfg, ds.universe);
  std::vector<ElementUpdate> updates;
  for (int step = 0; step < 3; ++step) {
    model.Step(&ds.elements, &updates);
    EXPECT_EQ(g.ApplyUpdates(updates), updates.size());
  }
  EXPECT_GT(g.update_stats().InPlaceFraction(), 0.97);
  std::string err;
  EXPECT_TRUE(g.CheckInvariants(&err)) << err;
}

// The registry's cell rule (DefaultCell in registry.cc, file-local there),
// restated so a test can build the registry's grid as a bare MemGrid and
// read its update stats.
float RegistryCell(const std::vector<Element>& elements, const AABB& u) {
  const auto stats = grid::DatasetStats::Compute(elements, u);
  const float chosen =
      grid::ChooseCellSize(stats, std::max(1e-3, stats.mean_extent * 8.0));
  return std::max(chosen, static_cast<float>(stats.max_extent) * 1.01f);
}

// The §4.1 update storm at the registry's default configuration: layout
// slack absorbs every step's migrations, so churn never re-lays-out the
// grid, the footprint stays near its post-build size and the block is
// reallocated at most twice. A bare MemGrid twin with MemGridConfig's
// defaults runs alongside for the update stats; equal MemoryBytes after
// the build and at the end show the registry grid is that grid.
TEST(MemGridTest, DefaultConfigAbsorbsPlasticityChurn) {
  auto ds = datagen::GenerateNeuronsWithSize(225000, 12345);
  ds.elements.resize(200000);
  std::vector<Element>& mirror = ds.elements;
  auto index = MakeIndex("memgrid");
  index->Build(mirror, ds.universe);
  MemGrid twin(ds.universe,
               MemGridConfig{.cell_size = RegistryCell(mirror, ds.universe)});
  twin.Build(mirror);
  const std::size_t built = index->MemoryBytes();
  ASSERT_EQ(twin.Shape().bytes, built);

  datagen::PlasticityModel model(datagen::PlasticityConfig{}, ds.universe);
  std::vector<ElementUpdate> updates;
  for (int step = 0; step < 40; ++step) {
    model.Step(&mirror, &updates);
    ASSERT_EQ(index->ApplyUpdates(updates), updates.size());
    ASSERT_EQ(twin.ApplyUpdates(updates), updates.size());
  }
  const MemGridUpdateStats& stats = twin.update_stats();
  EXPECT_GT(stats.migrations, 0u);
  EXPECT_EQ(stats.relayouts, 0u);
  EXPECT_LE(stats.block_growths, 2u);
  EXPECT_EQ(twin.Shape().bytes, index->MemoryBytes());
  EXPECT_LE(static_cast<double>(index->MemoryBytes()),
            1.15 * static_cast<double>(built));

  std::string err;
  ASSERT_TRUE(index->CheckInvariants(&err)) << err;
  Rng rng(88);
  for (int q = 0; q < 20; ++q) {
    const Vec3 p = rng.PointIn(ds.universe);
    const AABB range = AABB::FromCenterHalfExtent(p, rng.Uniform(2.0f, 20.0f));
    std::vector<ElementId> got;
    index->RangeQuery(range, &got);
    EXPECT_EQ(Sorted(got), ScanRange(mirror, range)) << "range q" << q;
    index->KnnQuery(p, 10, &got);
    EXPECT_EQ(got, ScanKnn(mirror, p, 10)) << "knn q" << q;
  }
}

// One batch whose migrations target every cell of a small grid, each by
// more than its layout slack: the relocations it reserves double every
// shard's footprint, so a re-layout fires in the middle of the
// reservation step. That re-layout must make room for every pending
// demand of its shard — the restarted reservations then find room
// without relocating (no dead slots afterwards) — and every landing must
// fit. Duplicate ids (moved twice; moved and sent back to their source
// cell) and an unknown id ride along. Pre- and post-batch oracles.
TEST(MemGridTest, ReservationSurvivesARelayoutMidBatch) {
  const auto elems = GenerateUniformBoxes(12000, kUniverse, 0.05f, 0.5f);
  const auto check = [&](const MemGrid& g, const std::vector<Element>& want,
                         const std::string& label) {
    std::string err;
    ASSERT_TRUE(g.CheckInvariants(&err)) << label << ": " << err;
    ASSERT_EQ(g.size(), want.size()) << label;
    Rng rng(90);
    for (int q = 0; q < 12; ++q) {
      const Vec3 p = rng.PointIn(kUniverse);
      const AABB range = AABB::FromCenterHalfExtent(p, rng.Uniform(1, 15));
      std::vector<ElementId> got;
      g.RangeQuery(range, &got);
      ASSERT_EQ(Sorted(got), ScanRange(want, range)) << label << " q" << q;
      g.KnnQuery(p, 9, &got);
      ASSERT_EQ(got, ScanKnn(want, p, 9)) << label << " q" << q;
    }
  };
  for (const std::uint32_t shards : {1u, 5u}) {
    for (const std::uint32_t threads : {0u, 2u}) {
      const std::string label = "shards=" + std::to_string(shards) +
                                " t=" + std::to_string(threads);
      MemGrid g(kUniverse, MemGridConfig{.cell_size = 12.5f,
                                         .threads = threads,
                                         .shards = shards});
      g.Build(elems);
      check(g, elems, label + " pre");
      std::vector<Element> mirror = elems;
      std::vector<ElementUpdate> batch;
      Rng rng(91);
      for (Element& e : mirror) {
        if (e.id % 2 != 0) continue;
        const AABB from = e.box;
        e.box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                           rng.Uniform(0.05f, 0.5f));
        batch.emplace_back(e.id, e.box);
        if (e.id % 10 == 0) {
          // Moved again: to a third cell, or back where it started.
          e.box = e.id % 20 == 0 ? from.Translated(Vec3(0.01f, 0, 0))
                                 : AABB::FromCenterHalfExtent(
                                       rng.PointIn(kUniverse), 0.2f);
          batch.emplace_back(e.id, e.box);
        }
      }
      batch.emplace_back(999999, AABB::FromPoint(Vec3(1, 1, 1)));
      const std::uint64_t relayouts = g.update_stats().relayouts;
      ASSERT_EQ(g.ApplyUpdates(batch), batch.size() - 1) << label;
      EXPECT_EQ(g.update_stats().relayouts - relayouts, shards) << label;
      EXPECT_EQ(g.Shape().dead_slots, 0u) << label;
      check(g, mirror, label + " post");
    }
  }
}

// The per-cell distance lower bound must stop the best-first kNN walk
// early WITHOUT changing results — exactness is checked against the
// linear scan on clustered data with coarse cells, where one cell holds
// far more than k candidates and the void between clusters forces the
// walk through many empty rings.
TEST(MemGridTest, KnnLowerBoundStaysExactOnClusteredData) {
  const auto elems =
      GenerateClusteredBoxes(8000, kUniverse, 6, 3.0f, 0.1f, 0.7f);
  for (const CellLayout layout :
       {CellLayout::kRowMajor, CellLayout::kMorton, CellLayout::kHilbert}) {
    MemGridConfig cfg;
    cfg.cell_size = 6.0f;  // Coarse cells: shells expose many elements.
    cfg.layout = layout;
    MemGrid g(kUniverse, cfg);
    g.Build(elems);
    Rng rng(77);
    for (int q = 0; q < 24; ++q) {
      // Alternate probes inside clusters (dense, early stop matters) and
      // in the void between them (sparse, expansion must keep going).
      const Vec3 p = q % 2 == 0
                         ? elems[rng.NextBelow(elems.size())].Center()
                         : rng.PointIn(kUniverse);
      for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                                  std::size_t{33}}) {
        std::vector<ElementId> got;
        g.KnnQuery(p, k, &got);
        ASSERT_EQ(got, ScanKnn(elems, p, k))
            << "layout=" << ToString(layout) << " q" << q << " k=" << k;
      }
    }
  }
}

// Audit of the kNN float-safety margin: the per-cell lower bound
// (gap - max_half_extent - 1e-3*cell) must never stop the walk early on
// the degenerate inputs where the bound is tightest —
// zero-half-extent points (mhe contributes nothing), exact duplicates
// (distance ties resolved by id), query points EXACTLY on cell faces and
// lattice corners (gap == 0 on both sides of the face), probes outside
// the universe (CellCoords clamps into boundary cells) and k >= n (the
// walk must run to grid exhaustion). Differential vs the linear scan
// across every layout and a sharded storage config.
TEST(MemGridTest, KnnDegenerateInputsStayExactAcrossLayouts) {
  const float cell = 4.0f;
  Rng rng(87);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 300; ++i) {
    Vec3 c;
    if (i % 3 == 0) {
      // Centres exactly on the cell lattice (faces, edges, corners).
      c = Vec3(cell * static_cast<float>(i % 26),
               cell * static_cast<float>((i / 5) % 26),
               cell * static_cast<float>((i / 7) % 26));
    } else {
      c = rng.PointIn(kUniverse);
    }
    if (i % 10 == 0 && i > 0) c = elems[i - 1].Center();  // Exact duplicate.
    elems.emplace_back(i, AABB::FromCenterHalfExtent(c, 0.0f));  // Points.
  }
  std::vector<Vec3> probes;
  // On-face / on-corner probes, including the universe boundary.
  probes.emplace_back(0, 0, 0);
  probes.emplace_back(cell, cell, cell);
  probes.emplace_back(cell * 12, cell * 7, cell * 3);
  probes.emplace_back(100, 100, 100);
  probes.emplace_back(cell * 5, 17.3f, 42.9f);  // Face in x only.
  // Outside the universe (clamped into boundary cells).
  probes.emplace_back(-7, 50, 50);
  probes.emplace_back(108, 108, -3);
  // On top of elements (distance exactly 0).
  probes.push_back(elems[0].Center());
  probes.push_back(elems[30].Center());
  for (const CellLayout layout :
       {CellLayout::kRowMajor, CellLayout::kMorton, CellLayout::kHilbert}) {
    for (const std::uint32_t shards : {1u, 4u}) {
      MemGrid g(kUniverse, MemGridConfig{.cell_size = cell,
                                         .layout = layout,
                                         .shards = shards});
      g.Build(elems);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{7}, std::size_t{299},
              std::size_t{300}, std::size_t{350}}) {
          std::vector<ElementId> got;
          g.KnnQuery(probes[p], k, &got);
          ASSERT_EQ(got, ScanKnn(elems, probes[p], k))
              << "layout=" << ToString(layout) << " shards=" << shards
              << " probe " << p << " k=" << k;
        }
      }
    }
  }
}

// The four MemGrid registry profiles (memgrid, memgrid-morton,
// memgrid-hilbert, memgrid-sharded) at a fixed cell size, so a test can
// read back the lattice the kNN walk bounds.
std::vector<std::pair<std::string, MemGridConfig>> MemGridProfiles(
    float cell) {
  return {
      {"memgrid", MemGridConfig{.cell_size = cell}},
      {"memgrid-morton",
       MemGridConfig{.cell_size = cell, .layout = CellLayout::kMorton}},
      {"memgrid-hilbert",
       MemGridConfig{.cell_size = cell, .layout = CellLayout::kHilbert}},
      {"memgrid-sharded", MemGridConfig{.cell_size = cell, .shards = 5,
                                        .compact_regions_per_batch = 48}},
  };
}

/// Elements held by the cells whose lattice lower bound is <= kth2, by
/// brute force over the whole lattice. A cell's bound is the squared
/// distance from `p` to its box inflated by max_half_extent plus
/// 2e-3*cell, a boundary cell's box unbounded on its outer side. The walk
/// inflates by 1e-3*cell; the extra 1e-3*cell absorbs the float rounding
/// of its bound, so every cell the walk may scan is counted here.
std::size_t ElementsWithinLatticeBound(const MemGrid& g,
                                       const std::vector<Element>& elems,
                                       const Vec3& p, double kth2) {
  const MemGridShape s = g.Shape();
  const AABB& u = g.universe();
  const std::size_t n[3] = {s.nx, s.ny, s.nz};
  const float inv_cell = 1.0f / s.cell_size;
  std::vector<std::size_t> count(s.nx * s.ny * s.nz, 0);
  for (const Element& e : elems) {
    const Vec3 c = e.Center();
    std::size_t cell = 0;
    for (int a = 0; a < 3; ++a) {
      cell = cell * n[a] +
             static_cast<std::size_t>(ClampedCellCoord(
                 (c[a] - u.min[a]) * inv_cell, 0,
                 static_cast<std::int32_t>(n[a]) - 1));
    }
    ++count[cell];
  }
  const double slack = static_cast<double>(s.max_half_extent) +
                       2e-3 * static_cast<double>(s.cell_size);
  const auto gap2 = [&](int a, std::size_t i) {
    const double inf = std::numeric_limits<double>::infinity();
    const double lo = i == 0 ? -inf
                             : u.min[a] + static_cast<double>(i) *
                                              s.cell_size - slack;
    const double hi = i + 1 == n[a] ? inf
                                    : u.min[a] + static_cast<double>(i + 1) *
                                                     s.cell_size + slack;
    const double d = std::max({lo - p[a], 0.0, p[a] - hi});
    return d * d;
  };
  std::size_t total = 0;
  for (std::size_t x = 0; x < s.nx; ++x) {
    for (std::size_t y = 0; y < s.ny; ++y) {
      for (std::size_t z = 0; z < s.nz; ++z) {
        if (gap2(0, x) + gap2(1, y) + gap2(2, z) <= kth2) {
          total += count[(x * s.ny + y) * s.nz + z];
        }
      }
    }
  }
  return total;
}

// The kNN walk is best-first: it scans a cell only if the cell's lattice
// lower bound does not exceed the final k-th distance (a shell walk scans
// whole cubes of cells beyond it). So each probe's distance computations
// are at most the element count of those cells, computed here by brute
// force, on uniform and clustered data across every registry profile.
TEST(MemGridTest, KnnWalkIsBestFirst) {
  const std::pair<const char*, std::vector<Element>> datasets[] = {
      {"uniform", GenerateUniformBoxes(3000, kUniverse, 0.05f, 0.8f)},
      {"clustered",
       GenerateClusteredBoxes(3000, kUniverse, 5, 4.0f, 0.05f, 0.8f)},
  };
  for (const auto& [dname, elems] : datasets) {
    std::vector<Element> by_id(elems.size());
    for (const Element& e : elems) by_id[e.id] = e;
    Rng rng(91);
    std::vector<Vec3> probes;
    for (int i = 0; i < 12; ++i) probes.push_back(rng.PointIn(kUniverse));
    for (int i = 0; i < 12; ++i) {
      probes.push_back(elems[rng.NextBelow(elems.size())].Center());
    }
    probes.emplace_back(-15, 50, 50);
    probes.emplace_back(120, -8, 104);
    for (const auto& [pname, cfg] : MemGridProfiles(6.0f)) {
      MemGrid g(kUniverse, cfg);
      g.Build(elems);
      for (std::size_t q = 0; q < probes.size(); ++q) {
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{10}, std::size_t{40}}) {
          std::vector<ElementId> got;
          QueryCounters c;
          g.KnnQuery(probes[q], k, &got, &c);
          ASSERT_EQ(got, ScanKnn(elems, probes[q], k))
              << dname << " " << pname << " q" << q << " k=" << k;
          const double kth2 =
              got.size() < k
                  ? std::numeric_limits<double>::infinity()
                  : by_id[got.back()].box.SquaredDistanceTo(probes[q]);
          EXPECT_LE(c.distance_computations,
                    ElementsWithinLatticeBound(g, elems, probes[q], kth2))
              << dname << " " << pname << " q" << q << " k=" << k;
        }
      }
    }
  }
}

/// Move ~40% of the elements with ids >= `pinned` next to another such
/// element (ids are positions in `mirror`) —
/// migrations that keep the data's shape (clusters stay clusters) while
/// churning regions, so a small compaction budget leaves passes in flight.
std::vector<ElementUpdate> ShapeKeepingChurn(std::vector<Element>* mirror,
                                             ElementId pinned, Rng* rng) {
  std::vector<ElementUpdate> batch;
  for (Element& e : *mirror) {
    if (e.id < pinned || rng->NextFloat() >= 0.4f) continue;
    const Vec3 anchor =
        (*mirror)[pinned + rng->NextBelow(mirror->size() - pinned)].Center() +
        Vec3(rng->Uniform(-1, 1), rng->Uniform(-1, 1), rng->Uniform(-1, 1));
    e.box = AABB::FromCenterHalfExtent(anchor, rng->Uniform(0.05f, 0.8f));
    batch.emplace_back(e.id, e.box);
  }
  return batch;
}

/// Point elements tied across cell boundaries (cell 4, so the probes'
/// cell spans [48, 52) on each axis). Ids 0..5 lie at distance 3 from
/// (50,50,50), one per face-neighbour cell, id 0 in the cell the walk
/// pops last among them: k=7 cuts that tie. Ids 6 and 7 lie at distance
/// 1.5 from (51,50,50), id 6 beyond x = 52 in the neighbour cell, id 7 in
/// the probe's own cell: k=2 cuts that tie. Id 8 is nearer to both
/// probes. Ids 9 and 10 are boxes that both contain (51.8,50,50), id 9 in
/// the neighbour cell beyond x = 52: the distance-0 tie sits exactly on
/// that cell's lower bound, which the walk must still scan. The filler
/// boxes stay at least 4 away from every probe.
std::vector<Element> KnnTieDataset(std::size_t filler) {
  std::vector<Element> elems;
  const auto point = [&](float x, float y, float z) {
    elems.emplace_back(static_cast<ElementId>(elems.size()),
                       AABB::FromPoint(Vec3(x, y, z)));
  };
  point(53, 50, 50);  // +x neighbour: the largest cell index, popped last.
  point(50, 50, 53);
  point(50, 53, 50);
  point(50, 50, 47);
  point(50, 47, 50);
  point(47, 50, 50);
  point(52.5f, 50, 50);
  point(49.5f, 50, 50);
  point(50, 50, 51);
  elems.emplace_back(9, AABB::FromCenterHalfExtent(Vec3(52.2f, 50, 50), 0.5f));
  elems.emplace_back(10,
                     AABB::FromCenterHalfExtent(Vec3(51.6f, 50, 50), 0.5f));
  Rng rng(93);
  while (elems.size() < filler + 11) {
    const Vec3 c = rng.PointIn(kUniverse);
    if (SquaredDistance(c, Vec3(50.5f, 50, 50)) < 49.0f) continue;
    elems.emplace_back(static_cast<ElementId>(elems.size()),
                       AABB::FromCenterHalfExtent(c, rng.Uniform(0.05f, 0.5f)));
  }
  return elems;
}

// kNN differential against ScanKnn at the walk's edges — probes outside
// the universe, probes in the empty space between clusters, k >= n, a
// single-cell grid and (distance, id) ties at the k-th position split
// across cells — at shards {1, 5} x threads {0, 2}, pristine and
// mid-compaction, on every layout. KnnQueryBatch slots must equal the
// per-probe calls, counters included. The grids are gap-free: layout
// slack would absorb the churn that has to reach a mid-compaction state.
TEST(MemGridTest, KnnMatchesScanKnnAtTheWalksEdges) {
  struct Dataset {
    const char* name;
    std::vector<Element> elems;
    float cell;
    ElementId pinned;  // Ids the churn must not move.
  };
  const Dataset datasets[] = {
      {"uniform", GenerateUniformBoxes(3000, kUniverse, 0.05f, 0.8f), 4.0f,
       0},
      {"clustered",
       GenerateClusteredBoxes(3000, kUniverse, 4, 3.0f, 0.05f, 0.8f), 4.0f,
       0},
      {"single-cell", GenerateUniformBoxes(600, kUniverse, 0.05f, 0.8f),
       500.0f, 0},
      {"ties", KnnTieDataset(3000), 4.0f, 11},
  };
  for (const Dataset& ds : datasets) {
    Rng rng(94);
    std::vector<Vec3> probes = {Vec3(50, 50, 50), Vec3(51, 50, 50),
                                Vec3(51.8f, 50, 50), Vec3(-20, 50, 130), Vec3(150, 150, 150),
                                Vec3(0, 0, 0), Vec3(-1e6f, 3, 3)};
    // Empty space: random points whose nearest element is > 8 away (a
    // few always exist between four tight clusters).
    for (int tries = 0, kept = 0; tries < 2000 && kept < 6; ++tries) {
      const Vec3 p = rng.PointIn(kUniverse);
      const auto nn = ScanKnn(ds.elems, p, 1);
      if (ds.elems[nn[0]].box.SquaredDistanceTo(p) > 64.0f) {
        probes.push_back(p);
        ++kept;
      }
    }
    for (int i = 0; i < 6; ++i) probes.push_back(rng.PointIn(kUniverse));
    const std::size_t n = ds.elems.size();
    const std::size_t ks[] = {1, 2, 3, 7, 40, n, n + 5};
    for (const CellLayout layout :
         {CellLayout::kRowMajor, CellLayout::kMorton, CellLayout::kHilbert}) {
      for (const std::uint32_t shards : {1u, 5u}) {
        for (const std::uint32_t threads : {0u, 2u}) {
          for (const bool mid_compaction : {false, true}) {
            const std::string label =
                std::string(ds.name) + " layout=" + ToString(layout) +
                " shards=" + std::to_string(shards) +
                " t=" + std::to_string(threads) +
                (mid_compaction ? " mid-compaction" : " pristine");
            MemGrid g(kUniverse,
                      MemGridConfig{.cell_size = ds.cell,
                                    .slack_fraction = 0,
                                    .threads = threads,
                                    .layout = layout,
                                    .shards = shards,
                                    .compact_regions_per_batch =
                                        mid_compaction ? 4u : 0u});
            g.Build(ds.elems);
            std::vector<Element> mirror = ds.elems;
            if (mid_compaction) {
              Rng churn(95);
              for (int round = 0;
                   round < 6 && g.Shape().compacting_shards == 0; ++round) {
                g.ApplyUpdates(ShapeKeepingChurn(&mirror, ds.pinned, &churn));
              }
              if (ds.cell < 100.0f) {
                ASSERT_GT(g.Shape().compacting_shards, 0u) << label;
              }
            }
            for (const std::size_t k : ks) {
              // k >= n walks the whole lattice; a few probes (inside, on
              // the ties, outside the universe) cover it.
              const std::span<const Vec3> batch =
                  std::span<const Vec3>(probes).first(k >= n ? 4
                                                             : probes.size());
              std::vector<std::vector<ElementId>> want(batch.size());
              QueryCounters want_c;
              for (std::size_t q = 0; q < batch.size(); ++q) {
                g.KnnQuery(batch[q], k, &want[q], &want_c);
                ASSERT_EQ(want[q], ScanKnn(mirror, batch[q], k))
                    << label << " q" << q << " k=" << k;
              }
              std::vector<std::vector<ElementId>> got;
              QueryCounters got_c;
              g.KnnQueryBatch(batch, k, &got, &got_c);
              ASSERT_EQ(got, want) << label << " batch k=" << k;
              EXPECT_EQ(got_c, want_c) << label << " batch counters k=" << k;
            }
          }
        }
      }
    }
  }
}

TEST(MemGridTest, SelfJoinMatchesReference) {
  const auto elems = GenerateUniformBoxes(1500, kUniverse, 0.2f, 0.8f);
  MemGridConfig cfg;
  cfg.cell_size = 2.5f;  // >= 2*max_half_extent + eps.
  MemGrid g(kUniverse, cfg);
  g.Build(elems);
  for (const float eps : {0.0f, 0.5f}) {
    std::vector<std::pair<ElementId, ElementId>> got;
    g.SelfJoin(eps, &got);
    SortPairs(&got);
    auto want = NestedLoopSelfJoin(elems, eps);
    SortPairs(&want);
    EXPECT_EQ(got, want) << "eps=" << eps;
  }
}

TEST(MemGridTest, InsertEraseUpdateSoak) {
  Rng rng(83);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 5.0f});
  g.Build({});
  std::vector<Element> mirror;
  ElementId next = 0;
  for (int step = 0; step < 3000; ++step) {
    const float dice = rng.NextFloat();
    if (dice < 0.45f || mirror.empty()) {
      const Element e(next++, AABB::FromCenterHalfExtent(
                                  rng.PointIn(kUniverse),
                                  rng.Uniform(0.1f, 1.0f)));
      g.Insert(e);
      mirror.push_back(e);
    } else if (dice < 0.65f) {
      const std::size_t i = rng.NextBelow(mirror.size());
      EXPECT_TRUE(g.Erase(mirror[i].id));
      mirror[i] = mirror.back();
      mirror.pop_back();
    } else if (dice < 0.85f) {
      const std::size_t i = rng.NextBelow(mirror.size());
      const AABB nb = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                 rng.Uniform(0.1f, 1.0f));
      EXPECT_TRUE(g.Update(mirror[i].id, nb));
      mirror[i].box = nb;
    } else {
      const AABB q = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                rng.Uniform(1.0f, 12.0f));
      std::vector<ElementId> got;
      g.RangeQuery(q, &got);
      ASSERT_EQ(Sorted(got), Sorted(ScanRange(mirror, q))) << "step " << step;
    }
  }
  std::string err;
  EXPECT_TRUE(g.CheckInvariants(&err)) << err;
}

TEST(MemGridTest, SlackExhaustionRelayoutKeepsQueriesExact) {
  // Hammer a single cell with inserts so its region outgrows every slack
  // grant: regions must relocate, dead space must accumulate, and the full
  // re-layout must eventually fire — all invisible to queries.
  Rng rng(84);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 5.0f});
  g.Build({});
  std::vector<Element> mirror;
  const Vec3 hot(2.5f, 2.5f, 2.5f);
  for (ElementId i = 0; i < 4000; ++i) {
    // ~90% of inserts land in the hot cell, the rest spread out.
    const Vec3 c = (i % 10 != 0)
                       ? hot + Vec3(rng.Uniform(-2.0f, 2.0f),
                                    rng.Uniform(-2.0f, 2.0f),
                                    rng.Uniform(-2.0f, 2.0f))
                       : rng.PointIn(kUniverse);
    const Element e(i, AABB::FromCenterHalfExtent(c, 0.2f));
    g.Insert(e);
    mirror.push_back(e);
  }
  std::string err;
  ASSERT_TRUE(g.CheckInvariants(&err)) << err;
  EXPECT_GT(g.update_stats().relayouts, 0u);
  for (int q = 0; q < 20; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(
        rng.PointIn(kUniverse), rng.Uniform(0.5f, 8.0f));
    std::vector<ElementId> got;
    g.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), Sorted(ScanRange(mirror, query))) << "q" << q;
  }
  std::vector<ElementId> knn;
  g.KnnQuery(hot, 9, &knn);
  EXPECT_EQ(knn, ScanKnn(mirror, hot, 9));
}

// Regression (churn cap): blocks below kMinEntriesForRelayout (4096) never
// hit the growth trigger, so relocation churn on a SMALL hot grid used to
// bloat the block to ~4096 slots while holding a few dozen live elements
// (dead + stranded slack bounded only by the constant, not the data). The
// churn cap re-layouts once relocation-abandoned dead slots outgrow a
// fixed multiple of the live count, regardless of absolute size (stranded
// geometric slack is itself bounded by a constant factor of dead, so
// capping dead bounds the total).
TEST(MemGridTest, ChurnCapBoundsSmallGridWaste) {
  Rng rng(88);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 5.0f});
  // A small resident population so the bound has a live count to track.
  std::vector<Element> resident;
  for (ElementId i = 0; i < 16; ++i) {
    resident.emplace_back(i, AABB::FromCenterHalfExtent(
                                 rng.PointIn(kUniverse), 0.3f));
  }
  g.Build(resident);
  // Insert/erase cycles hammering one hot cell per cycle (a different cell
  // each cycle, so every burst churns a fresh zero-cap region through
  // geometric relocation and strands its capacity on erase).
  const ElementId kBurstBase = 1000;
  std::size_t max_waste = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    const Vec3 hot(2.5f + 5.0f * static_cast<float>(cycle % 19),
                   2.5f + 5.0f * static_cast<float>((cycle / 19) % 19),
                   2.5f);
    for (ElementId i = 0; i < 80; ++i) {
      g.Insert(Element(kBurstBase + i,
                       AABB::FromCenterHalfExtent(
                           hot + Vec3(rng.Uniform(-1.0f, 1.0f),
                                      rng.Uniform(-1.0f, 1.0f),
                                      rng.Uniform(-1.0f, 1.0f)),
                           0.2f)));
    }
    for (ElementId i = 0; i < 80; ++i) g.Erase(kBurstBase + i);
    const MemGridShape s = g.Shape();
    max_waste = std::max(max_waste, s.slack_slots + s.dead_slots);
  }
  // Pre-fix the waste marched to ~4096 slots (256x the live population);
  // the churn cap holds it to a small multiple of live + burst peak.
  EXPECT_LT(max_waste, 2048u);
  EXPECT_GT(g.update_stats().relayouts, 0u);
  std::string err;
  ASSERT_TRUE(g.CheckInvariants(&err)) << err;
  // The grid still answers exactly after all that churn.
  for (int q = 0; q < 10; ++q) {
    const AABB query = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                  rng.Uniform(2.0f, 15.0f));
    std::vector<ElementId> got;
    g.RangeQuery(query, &got);
    EXPECT_EQ(Sorted(got), ScanRange(resident, query)) << "q" << q;
  }
}

// Regression for the churn cap's counter side: layout-policy slack
// (min_slack / slack_fraction) must NOT count as reclaimable waste. A
// padded config with min_slack=8 and ~1 element per cell carries 8x live
// in slack by design; a trigger that counted it would re-layout on every
// reservation forever (each re-layout recreates the identical slack) and
// collapse update throughput to O(n/shards) per migration.
TEST(MemGridTest, PaddedLayoutSlackIsNotChurnWaste) {
  Rng rng(89);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 2000; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                     0.2f));
  }
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 4.0f, .min_slack = 8});
  g.Build(elems);
  for (int i = 0; i < 1000; ++i) {
    const ElementId id = rng.NextBelow(2000);
    ASSERT_TRUE(g.Update(id, AABB::FromCenterHalfExtent(
                                 rng.PointIn(kUniverse), 0.2f)));
  }
  // 1000 scattered migrations into 8-slot-slack regions abandon almost no
  // dead space — nowhere near the dead-slot churn cap.
  EXPECT_EQ(g.update_stats().relayouts, 0u);
  std::string err;
  ASSERT_TRUE(g.CheckInvariants(&err)) << err;
}

TEST(MemGridTest, SelfJoinWidensReachWhenCellsAreTooSmall) {
  // Regression: with cell_size < 2*max_half_extent + eps the old code only
  // asserted (debug) and silently dropped pairs in release builds. The
  // runtime fallback must widen the neighbourhood and stay complete.
  // 600 elements: the widened sweep would visit more cells than there are
  // elements, so the all-pairs fallback fires; 3000 elements: the widened
  // forward-neighbourhood sweep itself runs.
  for (const ElementId n : {600u, 3000u}) {
    Rng rng(85);
    std::vector<Element> elems;
    for (ElementId i = 0; i < n; ++i) {
      // Half-extents up to 3.0 vs cell size 2.0: matching centres can sit
      // several cells apart.
      elems.emplace_back(
          i, AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                        rng.Uniform(0.5f, 3.0f)));
    }
    MemGrid g(kUniverse, MemGridConfig{.cell_size = 2.0f});
    g.Build(elems);
    for (const float eps : {0.0f, 1.0f}) {
      std::vector<std::pair<ElementId, ElementId>> got;
      g.SelfJoin(eps, &got);
      SortPairs(&got);
      auto want = NestedLoopSelfJoin(elems, eps);
      SortPairs(&want);
      EXPECT_EQ(got, want) << "n=" << n << " eps=" << eps;
    }
  }
}

// Curve-layout range oracle: on the Morton and Hilbert layouts, across
// shards x threads, on a pristine build, after relocation churn and with an
// incremental compaction pass caught mid-flight, every probe of a list of
// ordinary and degenerate boxes (empty / inverted, single cell, zero-volume
// planes, full universe, boxes clipped at the universe faces) must
//   * return exactly the brute-force id set (ScanRange);
//   * emit in traversal order: large probes (the BIGMIN run walk) never go
//     down in the curve key of each element's cell, small ones (the
//     coordinate scan) never go down in its row-major cell index;
//   * report the row-major grid's nodes_visited / element_tests /
//     bytes_read — totals over the probed cells that no run fusion may
//     change.
// Runs under the "determinism" ctest label, so it is also TSan workload.
TEST(MemGridTest, CurveLayoutRangeScanMatchesOracles) {
  // Probe boxes from this many cells up take the curve-run walk (the
  // coordinate scan below it; kCurveRunsMinCells in memgrid.cc).
  constexpr std::size_t kRunWalkMinCells = 64;
  const auto elems =
      GenerateClusteredBoxes(6000, kUniverse, 8, 6.0f, 0.05f, 0.6f);
  Rng rng(95);
  std::vector<AABB> probes;
  for (int q = 0; q < 10; ++q) {
    probes.push_back(AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                rng.Uniform(2.0f, 35.0f)));
  }
  probes.push_back(kUniverse);                                // Everything.
  probes.push_back(AABB(Vec3(20, 20, 20), Vec3(20, 20, 20))); // Point box.
  probes.push_back(AABB(Vec3(0, 0, 40), Vec3(100, 100, 40))); // z plane.
  probes.push_back(AABB(Vec3(55, 0, 0), Vec3(55, 100, 100))); // x plane.
  probes.push_back(AABB(Vec3(-50, -50, -50), Vec3(5, 150, 5)));  // Clipped.
  probes.push_back(AABB(Vec3(90, 90, 90), Vec3(160, 160, 160)));
  probes.push_back(AABB(Vec3(60, 10, 10), Vec3(40, 90, 90)));  // Inverted x.
  probes.push_back(AABB(Vec3(7, 7, 7), Vec3(3, 3, 3)));  // Fully inverted.
  probes.push_back(AABB());                              // Default empty.

  const auto check = [&](const MemGrid& curve_grid, const MemGrid& row_grid,
                         const std::vector<Element>& mirror,
                         const char* when) {
    const MemGridShape shape = curve_grid.Shape();
    const float inv_cell = 1.0f / shape.cell_size;
    const auto cell_coords = [&](const Vec3& p) {
      return std::array<std::int32_t, 3>{
          ClampedCellCoord((p.x - kUniverse.min.x) * inv_cell, 0,
                           static_cast<std::int32_t>(shape.nx) - 1),
          ClampedCellCoord((p.y - kUniverse.min.y) * inv_cell, 0,
                           static_cast<std::int32_t>(shape.ny) - 1),
          ClampedCellCoord((p.z - kUniverse.min.z) * inv_cell, 0,
                           static_cast<std::int32_t>(shape.nz) - 1)};
    };
    // Both orders the scan may emit in, per element: its cell's curve key
    // and its cell's row-major index.
    std::vector<std::uint64_t> curve_key(mirror.size());
    std::vector<std::uint64_t> row_index(mirror.size());
    for (const Element& e : mirror) {
      ASSERT_LT(e.id, mirror.size());
      const auto c = cell_coords(e.box.Center());
      const auto x = static_cast<std::uint32_t>(c[0]);
      const auto y = static_cast<std::uint32_t>(c[1]);
      const auto z = static_cast<std::uint32_t>(c[2]);
      curve_key[e.id] = shape.layout == CellLayout::kMorton
                            ? MortonEncodeCell(x, y, z)
                            : HilbertEncodeCell(x, y, z, shape.curve_bits);
      row_index[e.id] = (std::uint64_t{x} * shape.ny + y) * shape.nz + z;
    }
    for (std::size_t p = 0; p < probes.size(); ++p) {
      SCOPED_TRACE(::testing::Message() << when << " probe " << p);
      std::vector<ElementId> got, row_got;
      QueryCounters c_curve, c_row;
      curve_grid.RangeQuery(probes[p], &got, &c_curve);
      row_grid.RangeQuery(probes[p], &row_got, &c_row);
      ASSERT_EQ(Sorted(got), ScanRange(mirror, probes[p]));
      ASSERT_EQ(curve_grid.RangeQueryCount(probes[p]), got.size());
      ASSERT_EQ(c_curve.nodes_visited, c_row.nodes_visited);
      ASSERT_EQ(c_curve.element_tests, c_row.element_tests);
      ASSERT_EQ(c_curve.bytes_read, c_row.bytes_read);

      const AABB probe = probes[p].Inflated(shape.max_half_extent);
      const auto lo = cell_coords(probe.min);
      const auto hi = cell_coords(probe.max);
      std::size_t span = 1;
      for (int a = 0; a < 3; ++a) {
        span *= hi[a] < lo[a]
                    ? 0
                    : static_cast<std::size_t>(hi[a] - lo[a] + 1);
      }
      const std::vector<std::uint64_t>& order =
          span >= kRunWalkMinCells ? curve_key : row_index;
      for (std::size_t i = 1; i < got.size(); ++i) {
        ASSERT_LE(order[got[i - 1]], order[got[i]])
            << (span >= kRunWalkMinCells ? "curve key" : "row-major index")
            << " goes down at emission " << i;
      }
    }
  };

  for (const CellLayout layout : {CellLayout::kMorton, CellLayout::kHilbert}) {
    for (const std::uint32_t shards : {1u, 5u}) {
      for (const std::uint32_t threads : {0u, 2u}) {
        SCOPED_TRACE(::testing::Message()
                     << "layout=" << ToString(layout) << " shards=" << shards
                     << " threads=" << threads);
        MemGridConfig cfg;
        cfg.cell_size = 3.0f;
        cfg.shards = shards;
        cfg.threads = threads;
        cfg.compact_regions_per_batch = 2;  // Slow passes: easy to catch.
        MemGrid row_grid(kUniverse, cfg);
        cfg.layout = layout;
        MemGrid curve_grid(kUniverse, cfg);
        auto mirror = elems;
        curve_grid.Build(mirror);
        row_grid.Build(mirror);
        check(curve_grid, row_grid, mirror, "pristine");

        // Drive identical churn into both grids, checking after every
        // batch, until an incremental compaction pass is caught in flight
        // on the curve grid (the check then straddles its fresh/old block
        // split).
        Rng churn(96);
        std::vector<ElementUpdate> batch;
        bool caught_mid_pass = false;
        for (int round = 0; round < 120 && !caught_mid_pass; ++round) {
          batch.clear();
          for (Element& e : mirror) {
            if (churn.NextFloat() < 0.3f) {
              e.box = AABB::FromCenterHalfExtent(churn.PointIn(kUniverse),
                                                 churn.Uniform(0.05f, 0.6f));
              batch.emplace_back(e.id, e.box);
            }
          }
          ASSERT_EQ(curve_grid.ApplyUpdates(batch), batch.size());
          ASSERT_EQ(row_grid.ApplyUpdates(batch), batch.size());
          caught_mid_pass = curve_grid.Shape().compacting_shards > 0;
          check(curve_grid, row_grid, mirror,
                caught_mid_pass ? "mid-compaction" : "after churn");
        }
        // The churn above reliably leaves a pass in flight within a couple
        // of rounds; assert it so the mid-compaction coverage cannot
        // silently erode.
        ASSERT_TRUE(caught_mid_pass);
        std::string err;
        ASSERT_TRUE(curve_grid.CheckInvariants(&err)) << err;
      }
    }
  }
}

// SelfJoin's widened-reach sweep walks the bulk forward box as curve-rank
// runs on the curve layouts: pair sets must match brute force, and the
// comparison count must match the row-major grid's coordinate loop
// (emission order inside the bulk box legitimately differs — rank order
// vs coordinate order — so the comparison is on sorted pairs).
TEST(MemGridTest, SelfJoinWidenedReachMatchesBruteForceOnCurveLayouts) {
  Rng rng(97);
  std::vector<Element> elems;
  for (ElementId i = 0; i < 2500; ++i) {
    elems.emplace_back(i, AABB::FromCenterHalfExtent(
                              rng.PointIn(kUniverse),
                              rng.Uniform(0.5f, 3.0f)));
  }
  MemGridConfig cfg;
  cfg.cell_size = 2.0f;  // << 2*max_half_extent: the widened sweep runs.
  MemGrid row_grid(kUniverse, cfg);
  row_grid.Build(elems);
  for (const CellLayout layout : {CellLayout::kMorton, CellLayout::kHilbert}) {
    cfg.layout = layout;
    MemGrid curve_grid(kUniverse, cfg);
    curve_grid.Build(elems);
    for (const float eps : {0.0f, 0.8f}) {
      std::vector<std::pair<ElementId, ElementId>> got, row_got;
      QueryCounters c_curve, c_row;
      curve_grid.SelfJoin(eps, &got, &c_curve);
      row_grid.SelfJoin(eps, &row_got, &c_row);
      EXPECT_EQ(c_curve.element_tests, c_row.element_tests)
          << ToString(layout) << " eps=" << eps;
      SortPairs(&got);
      SortPairs(&row_got);
      auto want = NestedLoopSelfJoin(elems, eps);
      SortPairs(&want);
      ASSERT_EQ(got, want) << ToString(layout) << " eps=" << eps;
      ASSERT_EQ(row_got, want) << "rowmajor eps=" << eps;
    }
  }
}

// Mixed-workload differential battery: interleaved bulk-build / insert /
// erase / update / query phases with CheckInvariants after every phase —
// exactly the regime the slack-CSR layout must survive, run under both the
// default and the zero-slack ("tight", relocation-heavy) profiles.
class MemGridMixedWorkloadTest
    : public ::testing::TestWithParam<MemGridConfig> {};

TEST_P(MemGridMixedWorkloadTest, PhasesStayExactAndInvariant) {
  MemGrid g(kUniverse, GetParam());
  Rng rng(86);
  std::vector<Element> mirror;
  ElementId next = 0;

  const auto check_phase = [&](const char* phase) {
    std::string err;
    ASSERT_TRUE(g.CheckInvariants(&err)) << phase << ": " << err;
    ASSERT_EQ(g.size(), mirror.size()) << phase;
    for (int q = 0; q < 6; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(kUniverse), rng.Uniform(1.0f, 10.0f));
      std::vector<ElementId> got;
      g.RangeQuery(query, &got);
      ASSERT_EQ(Sorted(got), Sorted(ScanRange(mirror, query)))
          << phase << " q" << q;
    }
    const Vec3 p = rng.PointIn(kUniverse);
    std::vector<ElementId> knn;
    g.KnnQuery(p, 6, &knn);
    ASSERT_EQ(knn, ScanKnn(mirror, p, 6)) << phase;
  };

  // Phase 1: bulk build.
  for (; next < 1200; ++next) {
    mirror.emplace_back(next, AABB::FromCenterHalfExtent(
                                  rng.PointIn(kUniverse),
                                  rng.Uniform(0.1f, 1.2f)));
  }
  g.Build(mirror);
  check_phase("build");

  // Phase 2: incremental inserts.
  for (int i = 0; i < 400; ++i, ++next) {
    const Element e(next, AABB::FromCenterHalfExtent(
                              rng.PointIn(kUniverse),
                              rng.Uniform(0.1f, 1.2f)));
    g.Insert(e);
    mirror.push_back(e);
  }
  check_phase("insert");

  // Phase 3: erases (including re-erase of gone ids).
  for (int i = 0; i < 300; ++i) {
    const std::size_t at = rng.NextBelow(mirror.size());
    ASSERT_TRUE(g.Erase(mirror[at].id));
    EXPECT_FALSE(g.Erase(mirror[at].id));
    mirror[at] = mirror.back();
    mirror.pop_back();
  }
  check_phase("erase");

  // Phase 4: single updates, mixing small nudges (in place) with jumps.
  for (int i = 0; i < 400; ++i) {
    auto& m = mirror[rng.NextBelow(mirror.size())];
    const Vec3 c = i % 2 == 0 ? m.Center() + Vec3(0.01f, 0.01f, 0.01f)
                              : rng.PointIn(kUniverse);
    m.box = AABB::FromCenterHalfExtent(c, rng.Uniform(0.1f, 1.2f));
    ASSERT_TRUE(g.Update(m.id, m.box));
  }
  check_phase("update");

  // Phase 5: batch updates (the ApplyUpdates migration-grouping path),
  // including a duplicate id inside one batch.
  std::vector<ElementUpdate> batch;
  for (auto& m : mirror) {
    m.box = AABB::FromCenterHalfExtent(
        rng.NextFloat() < 0.3f ? rng.PointIn(kUniverse)
                               : m.Center() + Vec3(0.02f, 0, 0),
        rng.Uniform(0.1f, 1.2f));
    batch.emplace_back(m.id, m.box);
  }
  mirror.front().box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                                  0.5f);
  batch.emplace_back(mirror.front().id, mirror.front().box);
  batch.emplace_back(kInvalidElement, batch.front().new_box);  // Unknown id.
  EXPECT_EQ(g.ApplyUpdates(batch), batch.size() - 1);
  check_phase("batch-update");

  // Phase 6: rebuild on top of the mutated state.
  g.Build(mirror);
  check_phase("rebuild");
}

INSTANTIATE_TEST_SUITE_P(
    SlackProfiles, MemGridMixedWorkloadTest,
    ::testing::Values(MemGridConfig{.cell_size = 4.0f},
                      MemGridConfig{.cell_size = 4.0f, .slack_fraction = 0}),
    [](const ::testing::TestParamInfo<MemGridConfig>& info) {
      return info.param.slack_fraction == 0 ? "gapfree" : "slacked";
    });

TEST(MemGridTest, RebuildIsCheaperThanPerElementWork) {
  // Build must be a small constant per element (O(n) scatter); this is a
  // sanity guard, not a benchmark.
  const auto elems = GenerateUniformBoxes(200000, kUniverse, 0.05f, 0.3f);
  MemGrid g(kUniverse, MemGridConfig{.cell_size = 2.0f});
  Stopwatch sw;
  g.Build(elems);
  EXPECT_LT(sw.ElapsedSeconds(), 2.0);
  EXPECT_EQ(g.size(), elems.size());
}

// --- Registry-wide differential battery ----------------------------------

struct RegistryCase {
  std::string index;
  int dataset;  // 0 uniform, 1 clustered, 2 neurons.
};

std::vector<Element> MakeDataset(int dataset, std::size_t n) {
  switch (dataset) {
    case 0:
      return GenerateUniformBoxes(n, kUniverse, 0.05f, 1.0f);
    case 1:
      return GenerateClusteredBoxes(n, kUniverse, 10, 5.0f, 0.05f, 0.8f);
    default:
      return datagen::GenerateNeuronsWithSize(n).elements;
  }
}

class RegistryDifferentialTest
    : public ::testing::TestWithParam<RegistryCase> {};

TEST_P(RegistryDifferentialTest, RangeAndKnnAgainstBruteForce) {
  const RegistryCase& c = GetParam();
  auto index = MakeIndex(c.index);
  ASSERT_NE(index, nullptr) << c.index;
  const auto elems = MakeDataset(c.dataset, 3000);
  const AABB universe =
      c.dataset == 2 ? AABB(Vec3(0, 0, 0), Vec3(285, 285, 285)) : kUniverse;
  index->Build(elems, universe);
  EXPECT_EQ(index->size(), elems.size());

  Rng rng(91);
  const AABB bounds = BoundsOf(elems);
  if (index->SupportsRangeQueries()) {
    for (int q = 0; q < 25; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(bounds), rng.Uniform(0.5f, 15.0f));
      std::vector<ElementId> got;
      index->RangeQuery(query, &got);
      ASSERT_EQ(Sorted(got), ScanRange(elems, query))
          << c.index << " q" << q;
    }
  }
  for (int q = 0; q < 12; ++q) {
    const Vec3 p = rng.PointIn(bounds);
    std::vector<ElementId> got;
    index->KnnQuery(p, 8, &got);
    const auto want = ScanKnn(elems, p, 8);
    if (index->KnnIsExact()) {
      ASSERT_EQ(got, want) << c.index << " q" << q;
    } else {
      // Approximate contract: no garbage ids, sane size.
      EXPECT_LE(got.size(), 8u);
      for (const ElementId id : got) EXPECT_LT(id, elems.size());
    }
  }
}

TEST_P(RegistryDifferentialTest, UpdatesKeepExactness) {
  const RegistryCase& c = GetParam();
  auto index = MakeIndex(c.index);
  ASSERT_NE(index, nullptr);
  if (!index->SupportsUpdates() || !index->SupportsRangeQueries()) {
    GTEST_SKIP() << c.index << " is static or kNN-only";
  }
  auto elems = MakeDataset(c.dataset, 2000);
  const AABB universe =
      c.dataset == 2 ? AABB(Vec3(0, 0, 0), Vec3(285, 285, 285)) : kUniverse;
  index->Build(elems, universe);

  Rng rng(92);
  std::vector<ElementUpdate> updates;
  for (int round = 0; round < 3; ++round) {
    updates.clear();
    for (Element& e : elems) {
      e.box = e.box.Translated(Vec3(rng.Normal(0, 0.3f),
                                    rng.Normal(0, 0.3f),
                                    rng.Normal(0, 0.3f)));
      updates.emplace_back(e.id, e.box);
    }
    EXPECT_EQ(index->ApplyUpdates(updates), updates.size()) << c.index;
    for (int q = 0; q < 8; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(BoundsOf(elems)), rng.Uniform(1.0f, 10.0f));
      std::vector<ElementId> got;
      index->RangeQuery(query, &got);
      ASSERT_EQ(Sorted(got), Sorted(ScanRange(elems, query)))
          << c.index << " round " << round;
    }
  }
}

std::vector<RegistryCase> AllCases() {
  std::vector<RegistryCase> cases;
  for (const std::string& name : AllIndexNames()) {
    for (int ds = 0; ds < 3; ++ds) {
      cases.push_back({name, ds});
    }
  }
  return cases;
}

std::string RegistryCaseName(
    const ::testing::TestParamInfo<RegistryCase>& info) {
  static const char* kDatasets[] = {"uniform", "clustered", "neurons"};
  std::string n = info.param.index + "_" + kDatasets[info.param.dataset];
  std::replace(n.begin(), n.end(), '-', '_');
  return n;
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, RegistryDifferentialTest,
                         ::testing::ValuesIn(AllCases()), RegistryCaseName);

// Seeded mixed-workload differential fuzz: ONE op stream (bulk build,
// jitter batches, teleport batches with a duplicate and an unknown id,
// rebuild on the mutated state) driven through several registry profiles
// side by side. After every phase each profile must satisfy its structural
// invariants (SpatialIndex::CheckInvariants — real for the MemGrid
// profiles) and agree query-for-query with the brute-force mirror, which
// transitively cross-checks the profiles against each other.
TEST(RegistryTest, SeededMixedWorkloadDifferentialFuzz) {
  const std::vector<std::string> profiles = {
      "memgrid",          "memgrid-morton",   "memgrid-hilbert",
      "memgrid-sharded",  "rtree",
      "rtree-packed-str",
      "rtree-packed-hilbert", "linear-scan"};
  std::vector<std::unique_ptr<SpatialIndex>> indexes;
  for (const std::string& p : profiles) {
    auto index = MakeIndex(p);
    ASSERT_NE(index, nullptr) << p;
    ASSERT_TRUE(index->SupportsUpdates()) << p;
    indexes.push_back(std::move(index));
  }

  Rng rng(123);
  std::vector<Element> mirror = MakeDataset(1, 2500);  // Clustered.
  const auto check_phase = [&](const char* phase) {
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      std::string err;
      ASSERT_TRUE(indexes[i]->CheckInvariants(&err))
          << profiles[i] << " after " << phase << ": " << err;
      ASSERT_EQ(indexes[i]->size(), mirror.size())
          << profiles[i] << " after " << phase;
    }
    for (int q = 0; q < 8; ++q) {
      const AABB query = AABB::FromCenterHalfExtent(
          rng.PointIn(kUniverse), rng.Uniform(1.0f, 10.0f));
      const auto want = Sorted(ScanRange(mirror, query));
      for (std::size_t i = 0; i < indexes.size(); ++i) {
        std::vector<ElementId> got;
        indexes[i]->RangeQuery(query, &got);
        ASSERT_EQ(Sorted(got), want)
            << profiles[i] << " after " << phase << " q" << q;
      }
    }
    const Vec3 p = rng.PointIn(kUniverse);
    const auto want_knn = ScanKnn(mirror, p, 7);
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      std::vector<ElementId> got;
      indexes[i]->KnnQuery(p, 7, &got);
      ASSERT_EQ(got, want_knn) << profiles[i] << " after " << phase;
    }
  };

  for (auto& index : indexes) index->Build(mirror, kUniverse);
  check_phase("build");

  std::vector<ElementUpdate> batch;
  for (int round = 0; round < 3; ++round) {
    // Jitter phase: everything moves a little (the §4.3 regime).
    batch.clear();
    for (Element& e : mirror) {
      e.box = e.box.Translated(Vec3(rng.Normal(0, 0.2f), rng.Normal(0, 0.2f),
                                    rng.Normal(0, 0.2f)));
      batch.emplace_back(e.id, e.box);
    }
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      ASSERT_EQ(indexes[i]->ApplyUpdates(batch), batch.size())
          << profiles[i] << " jitter round " << round;
    }
    check_phase("jitter");

    // Teleport phase: ~20% long-distance moves, plus a duplicate id (every
    // profile applies both, last write wins) and an unknown id (skipped).
    batch.clear();
    for (Element& e : mirror) {
      if (rng.NextFloat() < 0.2f) {
        e.box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse),
                                           rng.Uniform(0.1f, 0.8f));
        batch.emplace_back(e.id, e.box);
      }
    }
    if (!mirror.empty()) {
      Element& dup = mirror[mirror.size() / 3];
      dup.box = AABB::FromCenterHalfExtent(rng.PointIn(kUniverse), 0.3f);
      batch.emplace_back(dup.id, dup.box);
    }
    const std::size_t valid = batch.size();
    batch.emplace_back(kInvalidElement,
                       AABB::FromCenterHalfExtent(Vec3(1, 1, 1), 0.1f));
    for (std::size_t i = 0; i < indexes.size(); ++i) {
      ASSERT_EQ(indexes[i]->ApplyUpdates(batch), valid)
          << profiles[i] << " teleport round " << round;
    }
    check_phase("teleport");
  }

  // Rebuild on the mutated state: Build must discard everything stale.
  for (auto& index : indexes) index->Build(mirror, kUniverse);
  check_phase("rebuild");
}

TEST(RegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeIndex("no-such-index"), nullptr);
}

TEST(RegistryTest, AllNamesConstructible) {
  for (const std::string& name : AllIndexNames()) {
    EXPECT_NE(MakeIndex(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace simspatial::core
