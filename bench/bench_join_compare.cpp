// §2.2 / §3.3 / §4.3 — the in-memory spatial join: synapse detection.
//
// Paper: the self-join runs at every step ("wherever two neurons are within
// a given distance of each other, they will form a synapse"); in memory the
// join is comparison-bound [21]; the sweep line compares distant objects;
// TOUCH fixes that with hierarchical data-oriented partitioning but "depends
// on a costly data-oriented partitioning & indexing step prior to the
// join"; a grid "may not necessarily speed up the join, but will certainly
// speed up the preprocessing/indexing and thus the overall join" (§3.3).
//
// This bench reports, for each algorithm on the synapse workload: total
// time, partitioning/build time vs probe time, and comparisons performed.
// The nested loop runs at reduced scale and is extrapolated.

#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/bruteforce.h"
#include "common/parallel.h"
#include "core/memgrid.h"
#include "grid/resolution.h"
#include "join/spatial_join.h"
#include "rtree/packed_rtree.h"

namespace simspatial {
namespace {

using bench::Flags;

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n = flags.GetSize("n", 150000);
  const float eps = static_cast<float>(flags.GetDouble("eps", 0.25));
  const auto threads = static_cast<std::uint32_t>(
      flags.GetSize("threads", par::kThreadsAuto));
  core::CellLayout layout = core::CellLayout::kRowMajor;
  const std::string layout_name = flags.GetString("layout", "rowmajor");
  if (!core::ParseCellLayout(layout_name, &layout)) {
    std::fprintf(stderr,
                 "unknown --layout=%s (expected rowmajor|morton|hilbert)\n",
                 layout_name.c_str());
    return 2;
  }
  const auto shards = static_cast<std::uint32_t>(flags.GetSize("shards", 1));
  bench::JsonWriter json(flags.GetString("json", ""));

  bench::PrintHeader(
      "Spatial self-join (synapse detection) across algorithms",
      "Heinis et al., EDBT'14, Sections 2.2, 3.3, 4.3");
  const auto ds = bench::MakeBenchDataset(n);
  std::printf("dataset: %zu neuron segments; distance predicate eps=%.2f um\n",
              n, eps);

  TablePrinter t({"algorithm", "total ms", "comparisons", "pairs",
                  "comparisons per pair"});

  // Nested loop at reduced scale (quadratic), extrapolated.
  {
    const std::size_t small = std::min<std::size_t>(n, 20000);
    std::vector<Element> subset(ds.elements.begin(),
                                ds.elements.begin() + small);
    QueryCounters c;
    Stopwatch sw;
    const auto pairs = NestedLoopSelfJoin(subset, eps, &c);
    const double ms = sw.ElapsedMs();
    const double scale = double(n) / double(small);
    t.AddRow({"nested loop (extrapolated)",
              TablePrinter::Num(ms * scale * scale, 0) + " (est)",
              TablePrinter::Count(static_cast<std::uint64_t>(
                  double(c.element_tests) * scale * scale)) +
                  " (est)",
              TablePrinter::Count(pairs.size()) + " @" +
                  TablePrinter::Num(double(small) / 1000, 0) + "k",
              "-"});
  }

  const auto run = [&](const char* name, auto&& fn) {
    QueryCounters c;
    Stopwatch sw;
    const auto pairs = fn(&c);
    const double ms = sw.ElapsedMs();
    t.AddRow({name, TablePrinter::Num(ms, 1),
              TablePrinter::Count(c.element_tests),
              TablePrinter::Count(pairs.size()),
              TablePrinter::Num(pairs.empty()
                                    ? 0.0
                                    : double(c.element_tests) /
                                          double(pairs.size()),
                                1)});
    json.BeginRecord();
    json.Field("bench", "bench_join_compare");
    json.Field("algorithm", name);
    json.Field("n", static_cast<double>(n));
    json.Field("eps", static_cast<double>(eps));
    json.Field("layout", core::ToString(layout));
    json.Field("shards", static_cast<double>(shards));
    json.Field("total_ms", ms);
    json.Field("comparisons", static_cast<double>(c.element_tests));
    json.Field("pairs", static_cast<double>(pairs.size()));
    return pairs.size();
  };

  // The partitioned joins all honour --threads (deterministic chunked
  // drivers; pairs and counters are bit-identical at every value).
  join::PbsmOptions pbsm_opts;
  pbsm_opts.threads = threads;
  join::TouchOptions touch_opts;
  touch_opts.threads = threads;
  join::GridJoinOptions grid_opts;
  grid_opts.threads = threads;

  const std::size_t p_sweep = run("plane sweep", [&](QueryCounters* c) {
    return join::PlaneSweepSelfJoin(ds.elements, eps, c);
  });
  const std::size_t p_pbsm = run("PBSM (grid partitioning)",
                                 [&](QueryCounters* c) {
                                   return join::PbsmSelfJoin(ds.elements, eps,
                                                             pbsm_opts, c);
                                 });
  const std::size_t p_touch =
      run("TOUCH (hierarchical)", [&](QueryCounters* c) {
        return join::TouchSelfJoin(ds.elements, eps, touch_opts, c);
      });
  const std::size_t p_grid =
      run("grid join (centre cells, Sec 4.3)", [&](QueryCounters* c) {
        return join::GridSelfJoin(ds.elements, eps, grid_opts, c);
      });
  // Packed R-tree index-nested-loop join: bulk load in curve order (timed,
  // like every other row's partitioning step), then probe each element's
  // eps-inflated box and refine with the exact predicate (the inflated-box
  // candidates are a superset of the distance matches).
  std::unordered_map<ElementId, const Element*> by_id;
  by_id.reserve(ds.elements.size());
  for (const Element& e : ds.elements) by_id[e.id] = &e;
  const auto packed_join = [&](rtree::PackOrder order, QueryCounters* c) {
    rtree::PackedRTree tree(rtree::PackedRTreeOptions{32, order});
    tree.Build(ds.elements);
    std::vector<join::JoinPair> pairs;
    std::vector<ElementId> hits;
    for (const Element& e : ds.elements) {
      tree.RangeQuery(eps > 0.0f ? e.box.Inflated(eps) : e.box, &hits, c);
      for (const ElementId h : hits) {
        if (e.id >= h) continue;
        if (join::PairMatches(e.box, by_id.at(h)->box, eps)) {
          pairs.emplace_back(e.id, h);
        }
      }
    }
    return pairs;
  };
  const std::size_t p_packed_str =
      run("packed R-tree STR (build + range probes)", [&](QueryCounters* c) {
        return packed_join(rtree::PackOrder::kStr, c);
      });
  const std::size_t p_packed_hilbert =
      run("packed R-tree Hilbert (build + range probes)",
          [&](QueryCounters* c) {
            return packed_join(rtree::PackOrder::kHilbert, c);
          });
  // MemGrid's native self-join: the same §4.3 sweep over the slack-CSR
  // block, partitioned into per-worker contiguous rank ranges
  // (--threads=N; results are bit-identical at any thread count — see
  // tests/parallel_test.cpp) and laid out per --layout.
  // Build runs INSIDE the timed region, like every other row's
  // partitioning/sort step, so "total ms" compares like for like.
  const auto stats = grid::DatasetStats::Compute(ds.elements, ds.universe);
  core::MemGridConfig mg_cfg;
  // 2*max_half_extent + eps = max_extent + eps: the smallest cell for
  // which the fast 13-neighbour sweep is complete (§4.3).
  mg_cfg.cell_size = static_cast<float>(stats.max_extent + eps) * 1.01f;
  mg_cfg.threads = threads;
  mg_cfg.layout = layout;
  mg_cfg.shards = shards;
  std::printf("memgrid threads: %u, memgrid layout: %s, memgrid shards: %u\n",
              par::ResolveThreads(threads), core::ToString(layout), shards);
  const std::size_t p_memgrid =
      run("memgrid build+self-join (parallel)", [&](QueryCounters* c) {
        core::MemGrid memgrid(ds.universe, mg_cfg);
        memgrid.Build(ds.elements);
        std::vector<join::JoinPair> pairs;
        memgrid.SelfJoin(eps, &pairs, c);
        return pairs;
      });
  t.Print();
  json.Flush();

  bench::PrintClaim("all algorithms agree on the synapse pair count",
                    p_sweep == p_pbsm && p_pbsm == p_touch &&
                        p_touch == p_grid && p_grid == p_memgrid &&
                        p_memgrid == p_packed_str &&
                        p_packed_str == p_packed_hilbert);

  // Comparisons: who tests distant objects?
  QueryCounters c_sweep, c_touch, c_grid;
  join::PlaneSweepSelfJoin(ds.elements, eps, &c_sweep);
  join::TouchSelfJoin(ds.elements, eps, touch_opts, &c_touch);
  join::GridSelfJoin(ds.elements, eps, grid_opts, &c_grid);
  bench::PrintClaim(
      "the sweep performs more comparisons than spatially-partitioned joins "
      "(it does not ensure only close objects are compared)",
      c_sweep.element_tests > c_touch.element_tests &&
          c_sweep.element_tests > c_grid.element_tests);
  return 0;
}

}  // namespace simspatial

int main(int argc, char** argv) { return simspatial::Main(argc, argv); }
