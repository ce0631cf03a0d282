// SimSpatial perfbench — the repository benchmark.
//
// Runs one workload as a FIXED amount of work (a step or window count
// derived from --seconds, never a clock check), checks the library's
// outputs against brute-force oracles outside the timed region, and
// prints as its last stdout line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace=0 reports the end-to-end metrics; --trace=1 records spans
// around every public call on every other step/window and reports the
// per-layer ledger instead. perfbench/README.md documents the workloads.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--n=<elements>] [--units=<steps|windows>]
//             [--spans=<span dump path, traced runs>]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/bruteforce.h"
#include "common/counters.h"
#include "common/element.h"
#include "common/rng.h"
#include "core/memgrid.h"
#include "core/spatial_index.h"
#include "datagen/neuron.h"
#include "datagen/plasticity.h"
#include "grid/resolution.h"
#include "join/spatial_join.h"
#include "trace.h"

namespace simspatial::perfbench {
namespace {

using bench::Flags;
using bench::JsonWriter;
using bench::PercentileRecorder;

/// One workload: what it runs and how much of it. `units_per_second`
/// turns --seconds into a fixed step/window count.
struct Workload {
  const char* name;
  std::size_t n;
  std::uint32_t threads;
  double units_per_second;
  const char* unit;  ///< "step" or "window".
  /// Timed builds behind the setup_s median.
  std::size_t setup_builds;
};

// Units per --seconds. At the 15 s that BENCHMARK.json passes, each sim
// workload runs 210 steps, enough for a p95 with ten samples beyond it,
// and serve-zipf 6000 windows. On a 4-core Xeon that is about 18 s
// (plasticity), 32 s (synapse) and 10 s (serving) of timed work.
constexpr Workload kWorkloads[] = {
    {"sim-plasticity", 1000000, 1, 14.0, "step", 15},
    {"sim-synapse", 200000, 2, 14.0, "step", 71},
    {"serve-zipf", 1000000, 1, 400.0, "window", 15},
};

/// Untimed builds first, so the timed ones measure Build rather than the
/// allocator's first touch of fresh pages.
constexpr std::size_t kWarmupBuilds = 2;
constexpr std::size_t kMonitorProbes = 64;
constexpr float kMonitorFraction = 0.03f;  // probe cube side / universe side
constexpr std::size_t kCheckedProbesPerStep = 2;
constexpr float kSynapseEps = 0.5f;  // SimulationConfig::synapse_eps
constexpr std::size_t kJoinCheckEvery = 105;  // + the last step
constexpr std::size_t kCheckedWindowEvery = 16;  // seeded 1-in-16 sample
constexpr std::size_t kWindowOps = 512;
constexpr std::size_t kHotspots = 4096;
constexpr double kZipf = 0.99;
constexpr std::size_t kKnnK = 10;

/// Independent generator seeds (dataset, kinetics, probes, checks, stream)
/// from the one --seed argument.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z =
      seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The registry's cell-size rule for the "memgrid" profile (DefaultCell in
/// core/registry.cc, which is file-local): the resolution model's choice
/// for mid-size queries, floored at 1.01x the largest element.
float RegistryCellSize(const std::vector<Element>& elements,
                       const AABB& universe) {
  const auto stats = grid::DatasetStats::Compute(elements, universe);
  const float chosen =
      grid::ChooseCellSize(stats, std::max(1e-3, stats.mean_extent * 8.0));
  return std::max(chosen, static_cast<float>(stats.max_extent) * 1.01f);
}

/// Highest of p99/p95/p90/p75 with at least ten samples beyond it
/// (nearest-rank, as PercentileRecorder reads them).
struct Tail {
  double value = 0;
  const char* label = "p50";
  std::size_t beyond = 0;
};

Tail TailOf(const PercentileRecorder& r) {
  static constexpr std::pair<double, const char*> kLadder[] = {
      {0.99, "p99"}, {0.95, "p95"}, {0.90, "p90"}, {0.75, "p75"}};
  const std::size_t n = r.count();
  for (const auto& [q, label] : kLadder) {
    if (n == 0) break;
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(n - 1));
    if (n - 1 - idx >= 10) return {r.Percentile(q), label, n - 1 - idx};
  }
  return {r.P50(), "p50", n == 0 ? 0 : n - 1 - (n - 1) / 2};
}

std::vector<ElementId> Sorted(std::vector<ElementId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Everything one run measures. Counters are whole-run totals; the
/// recorders hold one sample per timed step/window.
struct RunState {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::size_t n = 0;
  std::size_t units = 0;
  bool trace = false;
  AABB universe;
  std::vector<Element> elements;  ///< Oracle copy of the current state.
  std::vector<Element> initial;   ///< The generated dataset, for builds.
  core::MemGridConfig grid_config;
  std::unique_ptr<core::MemGrid> grid;
  std::size_t build_stride = 1;  ///< Units between setup_s builds.
  std::size_t build_bytes = 0;
  bool registry_parity = false;

  PercentileRecorder build_s;
  PercentileRecorder unit_ms;         ///< Untraced steps/windows.
  PercentileRecorder traced_unit_ms;  ///< Traced steps/windows.
  double timed_ns = 0;                ///< Untraced units only.
  std::size_t ops_per_unit = 0;       ///< Public calls (or ops) per unit.
  /// What throughput_per_s counts per unit: 1 step, or a window's ops.
  double throughput_ops_per_unit = 1;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_failure;

  QueryCounters range_c;  ///< Range + count probes.
  QueryCounters knn_c;
  std::size_t knn_probes = 0;
  QueryCounters join_c;
  std::uint64_t join_pairs = 0;
  std::uint64_t join_skipped = 0;

  Tracer tracer;

  void Fail(std::size_t ops, const std::string& what) {
    failed += ops;
    if (first_failure.empty()) first_failure = what;
  }
  /// Trace every other unit so the run also measures its own overhead.
  bool Traced(std::size_t unit) const { return trace && unit % 2 == 0; }
  void RecordUnit(std::size_t unit, double ns) {
    if (Traced(unit)) {
      traced_unit_ms.Add(ns / 1e6);
    } else {
      unit_ms.Add(ns / 1e6);
      timed_ns += ns;
    }
  }
};

/// Generate exactly `n` neuron segments (ids 0..n-1) from the seed.
bool MakeDataset(RunState* run) {
  auto ds = datagen::GenerateNeuronsWithSize(run->n + run->n / 8,
                                             SubSeed(run->seed, 1));
  if (ds.elements.size() < run->n) {
    std::fprintf(stderr, "dataset too small: %zu < %zu\n", ds.elements.size(),
                 run->n);
    return false;
  }
  ds.elements.resize(run->n);
  for (std::size_t i = 0; i < run->n; ++i) {
    if (ds.elements[i].id != static_cast<ElementId>(i)) {
      std::fprintf(stderr, "dataset ids are not dense\n");
      return false;
    }
  }
  run->universe = ds.universe;
  run->elements = std::move(ds.elements);
  return true;
}

/// One MemGrid::Build of the initial elements into a fresh grid; `timed`
/// adds it to the setup_s samples.
std::unique_ptr<core::MemGrid> BuildGrid(RunState* run, bool timed) {
  auto grid = std::make_unique<core::MemGrid>(run->universe, run->grid_config);
  run->tracer.set_enabled(run->trace && timed);
  const std::int64_t t0 = WallNs();
  {
    Tracer::Scope span(&run->tracer, "core.build", 0);
    grid->Build(run->initial);
  }
  if (timed) run->build_s.Add(static_cast<double>(WallNs() - t0) / 1e9);
  run->tracer.set_enabled(false);
  return grid;
}

/// The remaining setup_s builds are spread over the run (one every
/// `build_stride` units, outside the timed region), so their median
/// samples the same stretch of machine time as the steps do.
void MaybeSetupBuild(RunState* run, std::size_t unit) {
  if (unit % run->build_stride == 0 &&
      run->build_s.count() < run->workload->setup_builds) {
    BuildGrid(run, true);
  }
}

void FinishSetupBuilds(RunState* run) {
  while (run->build_s.count() < run->workload->setup_builds) {
    BuildGrid(run, true);
  }
}

/// Warm-up builds, then the first timed build, which the run keeps.
void Setup(RunState* run) {
  run->initial = run->elements;
  // Default MemGridConfig: rowmajor, 1 shard, no incremental compaction.
  run->grid_config.cell_size = RegistryCellSize(run->elements, run->universe);
  run->grid_config.threads = run->workload->threads;
  run->build_stride =
      std::max<std::size_t>(1, run->units / (run->workload->setup_builds - 1));
  for (std::size_t b = 0; b < kWarmupBuilds; ++b) BuildGrid(run, false);
  run->grid = BuildGrid(run, true);
  run->build_bytes = run->grid->Shape().bytes;
  // The cell rule above restates the registry's; a registry-built grid
  // of the same elements must come out the same size.
  core::IndexOptions options;
  options.threads = run->workload->threads;
  auto reference = core::MakeIndex("memgrid", options);
  reference->Build(run->elements, run->universe);
  run->registry_parity = reference->MemoryBytes() == run->build_bytes;
}

/// A probe result against its brute-force answer (order-insensitive).
void CheckRange(RunState* run, const AABB& probe,
                const std::vector<ElementId>& got, const char* what) {
  if (Sorted(got) != Sorted(ScanRange(run->elements, probe))) {
    run->Fail(1, what);
  }
}

// --- sim-plasticity / sim-synapse -----------------------------------------

/// §4.1 update storm (+ per-probe monitoring) or §2.2 synapse detection,
/// one closed-loop step at a time. Kinetics, probe drawing and oracle
/// checks are outside the timed region.
void RunSimulation(RunState* run, bool synapse) {
  datagen::PlasticityConfig pcfg;
  pcfg.seed = SubSeed(run->seed, 2);
  datagen::PlasticityModel model(pcfg, run->universe);
  Rng probe_rng(SubSeed(run->seed, 3));
  Rng check_rng(SubSeed(run->seed, 4));
  const Vec3 ext = run->universe.Extent();
  const float half =
      std::max({ext.x, ext.y, ext.z}) * kMonitorFraction * 0.5f;

  std::vector<ElementUpdate> updates;
  updates.reserve(run->n);
  std::vector<AABB> probes(synapse ? 0 : kMonitorProbes);
  std::vector<std::vector<ElementId>> outs(probes.size());
  std::vector<join::JoinPair> pairs;
  join::GridJoinOptions jopts;
  jopts.threads = run->workload->threads;
  run->ops_per_unit = 1 + (synapse ? 1 : probes.size());
  run->tracer.Reserve(run->units * (2 + run->ops_per_unit));

  for (std::size_t step = 1; step <= run->units; ++step) {
    MaybeSetupBuild(run, step);
    model.Step(&run->elements, &updates);
    for (AABB& p : probes) {
      p = AABB::FromCenterHalfExtent(probe_rng.PointIn(run->universe), half);
    }
    std::size_t applied = 0;
    join::GridJoinStats jstats;
    run->attempted += run->ops_per_unit;
    run->tracer.set_enabled(run->Traced(step));
    try {
      const std::int64_t t0 = WallNs();
      {
        Tracer::Scope root(&run->tracer, "step", step);
        {
          Tracer::Scope span(&run->tracer, "core.apply_updates", step, true);
          applied = run->grid->ApplyUpdates(updates);
        }
        for (std::size_t q = 0; q < probes.size(); ++q) {
          Tracer::Scope span(&run->tracer, "core.range", step);
          run->grid->RangeQuery(probes[q], &outs[q], &run->range_c);
        }
        if (synapse) {
          Tracer::Scope span(&run->tracer, "join.self_join", step, true);
          pairs = join::GridSelfJoin(run->elements, kSynapseEps, jopts,
                                     &run->join_c, &jstats);
        }
      }
      run->RecordUnit(step, static_cast<double>(WallNs() - t0));
    } catch (const std::exception& e) {
      run->tracer.set_enabled(false);
      run->Fail(run->ops_per_unit, std::string("exception: ") + e.what());
      return;
    }
    run->tracer.set_enabled(false);

    if (applied != updates.size()) run->Fail(1, "ApplyUpdates count");
    for (std::size_t c = 0; c < kCheckedProbesPerStep && !probes.empty();
         ++c) {
      const std::size_t q = check_rng.NextBelow(probes.size());
      CheckRange(run, probes[q], outs[q], "monitoring probe");
    }
    if (synapse) {
      run->join_pairs += pairs.size();
      run->join_skipped += jstats.skipped_tests;
      // The index is not probed in the timed step; check its state here.
      const AABB probe = AABB::FromCenterHalfExtent(
          check_rng.PointIn(run->universe), half);
      std::vector<ElementId> got;
      run->grid->RangeQuery(probe, &got);
      CheckRange(run, probe, got, "index state probe");
      if (step % kJoinCheckEvery == 1 || step == run->units) {
        auto expect = join::PlaneSweepSelfJoin(run->elements, kSynapseEps);
        SortPairs(&expect);
        SortPairs(&pairs);
        if (pairs != expect) run->Fail(1, "synapse pairs");
      }
    }
  }
}

// --- serve-zipf -------------------------------------------------------------

/// One window of the seeded Zipf stream (bench_serving's default mix):
/// probe centres are drawn from a fixed hotspot set with Zipf popularity,
/// updates drag a uniformly drawn element 1% of the way to a hotspot.
struct Window {
  std::vector<AABB> ranges;
  std::vector<AABB> counts;
  std::vector<Vec3> knns;
  std::vector<ElementUpdate> updates;
};

class ZipfStream {
 public:
  ZipfStream(std::uint64_t seed, const AABB& universe)
      : rng_(seed), sampler_(kHotspots, kZipf) {
    centers_.reserve(kHotspots);
    for (std::size_t i = 0; i < kHotspots; ++i) {
      centers_.push_back(rng_.PointIn(universe));
    }
    const Vec3 ext = universe.Extent();
    const float side = std::max({ext.x, ext.y, ext.z});
    range_half_ = side * 0.01f;
    count_half_ = side * 0.015f;
    elem_half_ = side * 0.002f;
  }

  void Next(const std::vector<Element>& elements, Window* w) {
    w->ranges.clear();
    w->counts.clear();
    w->knns.clear();
    w->updates.clear();
    for (std::size_t i = 0; i < kWindowOps; ++i) {
      const double draw = rng_.NextDouble();  // 70:15:10:5
      if (draw < 0.70) {
        w->ranges.push_back(AABB::FromCenterHalfExtent(Hot(), range_half_));
      } else if (draw < 0.85) {
        w->counts.push_back(AABB::FromCenterHalfExtent(Hot(), count_half_));
      } else if (draw < 0.95) {
        w->knns.push_back(Hot());
      } else {
        // One update per element per window: a batch names each id once.
        ElementId id;
        do {
          id = static_cast<ElementId>(rng_.NextBelow(elements.size()));
        } while (std::any_of(w->updates.begin(), w->updates.end(),
                             [id](const ElementUpdate& u) {
                               return u.id == id;
                             }));
        const Vec3 hot = Hot();
        const Vec3 cur = elements[id].box.Center();
        const Vec3 dest(cur.x + (hot.x - cur.x) * 0.01f,
                        cur.y + (hot.y - cur.y) * 0.01f,
                        cur.z + (hot.z - cur.z) * 0.01f);
        w->updates.emplace_back(id,
                                AABB::FromCenterHalfExtent(dest, elem_half_));
      }
    }
  }

 private:
  Vec3 Hot() { return centers_[sampler_.Sample(&rng_)]; }

  Rng rng_;
  ZipfSampler sampler_;
  std::vector<Vec3> centers_;
  float range_half_ = 0;
  float count_half_ = 0;
  float elem_half_ = 0;
};

/// In-situ analysis served while the index changes: one client, closed
/// loop, one window at a time through the batch query engine.
void RunServing(RunState* run) {
  ZipfStream stream(SubSeed(run->seed, 5), run->universe);
  Rng check_rng(SubSeed(run->seed, 4));
  Window w;
  std::vector<std::vector<ElementId>> range_slots;
  std::vector<std::vector<ElementId>> knn_slots;
  std::vector<std::size_t> counts;
  run->ops_per_unit = kWindowOps;
  run->throughput_ops_per_unit = kWindowOps;
  run->tracer.Reserve(run->units * 5);

  for (std::size_t win = 1; win <= run->units; ++win) {
    MaybeSetupBuild(run, win);
    stream.Next(run->elements, &w);
    std::size_t applied = 0;
    run->attempted += kWindowOps;
    run->tracer.set_enabled(run->Traced(win));
    try {
      const std::int64_t t0 = WallNs();
      {
        Tracer::Scope root(&run->tracer, "window", win);
        if (!w.updates.empty()) {
          Tracer::Scope span(&run->tracer, "core.apply_updates", win, true);
          applied = run->grid->ApplyUpdates(w.updates);
        }
        {
          Tracer::Scope span(&run->tracer, "core.range_batch", win);
          run->grid->RangeQueryBatch(w.ranges, &range_slots, &run->range_c);
        }
        {
          Tracer::Scope span(&run->tracer, "core.count_batch", win);
          run->grid->RangeQueryCountBatch(w.counts, &counts, &run->range_c);
        }
        {
          Tracer::Scope span(&run->tracer, "core.knn_batch", win);
          run->grid->KnnQueryBatch(w.knns, kKnnK, &knn_slots, &run->knn_c);
        }
      }
      run->knn_probes += w.knns.size();
      run->RecordUnit(win, static_cast<double>(WallNs() - t0));
    } catch (const std::exception& e) {
      run->tracer.set_enabled(false);
      run->Fail(kWindowOps, std::string("exception: ") + e.what());
      return;
    }
    run->tracer.set_enabled(false);

    for (const ElementUpdate& u : w.updates) {
      run->elements[u.id].box = u.new_box;
    }
    if (applied != w.updates.size()) run->Fail(1, "ApplyUpdates count");
    // A seeded sample of windows, one probe of each kind per sampled window.
    if (check_rng.NextBelow(kCheckedWindowEvery) != 0) continue;
    if (!w.ranges.empty()) {
      const std::size_t i = check_rng.NextBelow(w.ranges.size());
      CheckRange(run, w.ranges[i], range_slots[i], "range probe");
    }
    if (!w.counts.empty()) {
      const std::size_t i = check_rng.NextBelow(w.counts.size());
      if (counts[i] != ScanRange(run->elements, w.counts[i]).size()) {
        run->Fail(1, "count probe");
      }
    }
    if (!w.knns.empty()) {
      const std::size_t i = check_rng.NextBelow(w.knns.size());
      if (knn_slots[i] != ScanKnn(run->elements, w.knns[i], kKnnK)) {
        run->Fail(1, "knn probe");
      }
    }
  }
}

// --- Reporting --------------------------------------------------------------

/// Flat, ordered name -> number map printed as one JSON object.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}
std::string Count(std::uint64_t v) { return std::to_string(v); }
/// JSON string; only the failure text can carry quotes or control bytes.
std::string Str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch);
  }
  return out + "\"";
}

std::string Object(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + fields[i].first + "\": " +
           fields[i].second;
  }
  return out + "}";
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

std::vector<Metric> EndToEnd(const RunState& run, Fields* context) {
  const Tail tail = TailOf(run.unit_ms);
  context->emplace_back("latency_samples", Count(run.unit_ms.count()));
  context->emplace_back("latency_tail_percentile", Str(tail.label));
  context->emplace_back("latency_tail_beyond", Count(tail.beyond));
  context->emplace_back("setup_builds", Count(run.build_s.count()));
  const double ops = static_cast<double>(run.unit_ms.count()) *
                     run.throughput_ops_per_unit;
  return {
      {"setup_s", run.build_s.P50(), "s"},
      {"throughput_per_s", Ratio(ops, run.timed_ns / 1e9), "1/s"},
      {"latency_p50_ms", run.unit_ms.P50(), "ms"},
      {"latency_tail_ms", tail.value, "ms"},
      {"index_bytes_per_elem",
       Ratio(static_cast<double>(run.grid->Shape().bytes),
             static_cast<double>(run.grid->size())),
       "B"},
  };
}

/// Per-layer ledger from the traced units' spans.
std::vector<Metric> PerLayer(RunState* run, Fields* context) {
  run->tracer.ComputeSelfTimes();
  // Per name: one sample per traced unit (self time summed over the
  // unit's spans of that name), plus per-call durations and cpu/wall.
  std::map<std::string, std::map<std::uint32_t, double>> per_unit_ms;
  std::map<std::string, PercentileRecorder> per_call_ms;
  std::map<std::string, std::pair<double, double>> cpu_wall;
  for (const Span& s : run->tracer.spans()) {
    const double ms = static_cast<double>(s.self_ns) / 1e6;
    per_unit_ms[s.name][s.unit] += ms;
    per_call_ms[s.name].Add(ms);
    if (s.cpu_ns >= 0) {
      cpu_wall[s.name].first += static_cast<double>(s.cpu_ns);
      cpu_wall[s.name].second += static_cast<double>(s.duration_ns());
    }
  }
  const auto unit_p50 = [&](const std::string& name) {
    PercentileRecorder r;
    for (const auto& [unit, ms] : per_unit_ms[name]) r.Add(ms);
    return r.P50();
  };
  const auto cpu_per_wall = [&](const std::string& name) {
    return Ratio(cpu_wall[name].first, cpu_wall[name].second);
  };
  const std::string root = run->workload->unit;
  const Tail apply_tail = TailOf(per_call_ms["core.apply_updates"]);
  context->emplace_back("traced_units",
                        Count(run->traced_unit_ms.count()));
  context->emplace_back("apply_updates_tail_percentile", Str(apply_tail.label));
  context->emplace_back("apply_updates_tail_beyond",
                        Count(apply_tail.beyond));

  const core::MemGridShape shape = run->grid->Shape();
  const core::MemGridUpdateStats& us = run->grid->update_stats();
  const auto knn_probes = static_cast<double>(run->knn_probes);
  return {
      {"core.build_ms", per_call_ms["core.build"].P50(), "ms"},
      {"core.apply_updates_ms_p50", per_call_ms["core.apply_updates"].P50(),
       "ms"},
      {"core.apply_updates_ms_tail", apply_tail.value, "ms"},
      {"core.apply_updates_cpu_per_wall", cpu_per_wall("core.apply_updates"),
       "ratio"},
      {"core.relayouts", static_cast<double>(us.relayouts), "count"},
      {"core.migrations", static_cast<double>(us.migrations), "count"},
      {"core.in_place_frac", us.InPlaceFraction(), "ratio"},
      {"core.slack_slots", static_cast<double>(shape.slack_slots), "count"},
      {"core.dead_slots", static_cast<double>(shape.dead_slots), "count"},
      {"core.range_ms", unit_p50("core.range"), "ms"},
      {"core.range_batch_ms", unit_p50("core.range_batch"), "ms"},
      {"core.count_batch_ms", unit_p50("core.count_batch"), "ms"},
      {"core.knn_batch_ms", unit_p50("core.knn_batch"), "ms"},
      {"core.range_tests_per_result",
       Ratio(static_cast<double>(run->range_c.element_tests),
             static_cast<double>(run->range_c.results)),
       "ratio"},
      {"core.knn_distances_per_probe",
       Ratio(static_cast<double>(run->knn_c.distance_computations),
             knn_probes),
       "count"},
      {"core.knn_cells_per_probe",
       Ratio(static_cast<double>(run->knn_c.nodes_visited), knn_probes),
       "count"},
      {"join.self_join_ms", unit_p50("join.self_join"), "ms"},
      {"join.pairs", static_cast<double>(run->join_pairs), "count"},
      {"join.skipped_tests", static_cast<double>(run->join_skipped), "count"},
      {"join.tests_per_pair",
       Ratio(static_cast<double>(run->join_c.element_tests +
                                 run->join_c.distance_computations),
             static_cast<double>(run->join_pairs)),
       "ratio"},
      {"join.cpu_per_wall", cpu_per_wall("join.self_join"), "ratio"},
      {"trace.unattributed_ms", unit_p50(root), "ms"},
      {"trace.overhead_ms", run->traced_unit_ms.P50() - run->unit_ms.P50(),
       "ms"},
  };
}

/// Dump every span (one record each) through the shared JSON writer.
void WriteSpans(const RunState& run, const std::string& path) {
  JsonWriter json(path);
  for (const Span& s : run.tracer.spans()) {
    json.BeginRecord();
    json.Field("name", std::string(s.name));
    json.Field("unit", static_cast<double>(s.unit));
    json.Field("parent", static_cast<double>(s.parent));
    json.Field("start_ns", static_cast<double>(s.start_ns));
    json.Field("end_ns", static_cast<double>(s.end_ns));
    json.Field("self_ns", static_cast<double>(s.self_ns));
    json.Field("cpu_ns", static_cast<double>(s.cpu_ns));
  }
  json.Flush();
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  RunState run;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) run.workload = &w;
  }
  const double seconds = flags.GetDouble("seconds", 10.0);
  if (run.workload == nullptr || !(seconds > 0) || seconds > 600) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=<sim-plasticity|sim-synapse|"
                 "serve-zipf> --seed=<n> --seconds=<1..600> --trace=<0|1>\n");
    return 2;
  }
  run.seed = flags.GetSize("seed", 1);
  run.trace = flags.GetSize("trace", 0) != 0;
  run.n = flags.GetSize("n", run.workload->n);
  run.units = flags.GetSize(
      "units", static_cast<std::size_t>(
                   std::ceil(seconds * run.workload->units_per_second)));
  if (run.n < 1000 || run.units < 2) {
    std::fprintf(stderr, "need --n >= 1000 and --units >= 2\n");
    return 2;
  }
  if (!MakeDataset(&run)) return 2;

  Setup(&run);
  if (name == "serve-zipf") {
    RunServing(&run);
  } else {
    RunSimulation(&run, name == "sim-synapse");
  }
  FinishSetupBuilds(&run);
  std::string error;
  if (run.failed == 0 && !run.grid->CheckInvariants(&error)) {
    run.Fail(1, "invariants: " + error);
  }
  if (run.grid->size() != run.n) run.Fail(1, "element count");

  Fields context = {
      {"workload", Str(name)},
      {"seed", Count(run.seed)},
      {"trace", Num(run.trace ? 1 : 0)},
      {"n", Count(run.n)},
      {"units", Count(run.units)},
      {"unit", Str(run.workload->unit)},
      {"nproc", Num(std::thread::hardware_concurrency())},
      {"index_threads", Num(run.workload->threads)},
      {"join_threads", Num(name == "sim-synapse" ? run.workload->threads : 0)},
      {"cell_size", Num(run.grid->cell_size())},
      {"index_bytes_built", Count(run.build_bytes)},
      {"registry_parity", run.registry_parity ? "true" : "false"},
      {"index_bytes_end", Count(run.grid->Shape().bytes)},
      {"l2_bytes", Count(std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE)))},
      {"l3_bytes", Count(std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE)))},
      {"relayouts", Count(run.grid->update_stats().relayouts)},
      {"migrations", Count(run.grid->update_stats().migrations)},
      {"join_pairs", Count(run.join_pairs)},
      {"range_element_tests", Count(run.range_c.element_tests)},
      {"range_results", Count(run.range_c.results)},
      {"knn_distance_computations",
       Count(run.knn_c.distance_computations)},
      {"knn_nodes_visited", Count(run.knn_c.nodes_visited)},
      {"join_element_tests", Count(run.join_c.element_tests)},
      {"failed_frac", Num(Ratio(static_cast<double>(run.failed),
                                static_cast<double>(run.attempted)))},
  };
  const std::vector<Metric> metrics =
      run.trace ? PerLayer(&run, &context) : EndToEnd(run, &context);
  if (!run.first_failure.empty()) {
    context.emplace_back("first_failure", Str(run.first_failure));
  }

  const std::string spans_path = flags.GetString("spans", "");
  if (run.trace && !spans_path.empty()) WriteSpans(run, spans_path);
  Fields metric_fields;
  for (const Metric& m : metrics) {
    metric_fields.emplace_back(
        m.name, Object({{"value", Num(m.value)}, {"unit", Str(m.unit)}}));
  }
  std::printf("%s\n", Object({{"context", Object(context)}}).c_str());
  std::printf("%s\n",
              Object({{"correct", run.failed == 0 ? "true" : "false"},
                      {"attempted", Count(run.attempted)},
                      {"failed", Count(run.failed)},
                      {"metrics", Object(metric_fields)}})
                  .c_str());
  return run.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simspatial::perfbench

int main(int argc, char** argv) {
  return simspatial::perfbench::Main(argc, argv);
}
