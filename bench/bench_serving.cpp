// Serving workload harness: throughput + tail latency for the batch query
// engine under a Zipf- or trace-driven mix of range / count / knn /
// update ops.
//
// The paper's workload premise (§2.2) is millions of small queries per
// simulation tick, not one big scan. This harness replays such a stream
// against MemGrid two ways over identical ops:
//
//   serve-probe    one RangeQuery / RangeQueryCount / KnnQuery /
//                  single-update per op, in arrival order — the baseline
//                  every other bench drives.
//   serve-batched  ops grouped into windows of --batch: each window applies
//                  its updates as one ApplyUpdates batch, then serves its
//                  range probes through RangeQueryBatch, its count probes
//                  through RangeQueryCountBatch and its knn probes through
//                  KnnQueryBatch (BIGMIN-anchored rank-ordered probe
//                  scheduling + duplicate-probe reuse). Results per probe
//                  are bit-identical to serve-probe by the batch contract;
//                  only the schedule differs.
//
// Reported per mode: sustained throughput (all ops / wall time, median of
// --reps) and p50/p95/p99/max per-query latency (shared
// bench::PercentileRecorder). In batched mode a probe's latency is its
// window's batch-call wall time — what a client waiting on the window
// observes. JSON records carry the bench_util schema and are gated by
// bench_trajectory (see --serving-baseline there); committed baseline:
// BENCH_serving.json.
//
// Flags:
//   --n=<elements>     dataset size (default 1000000)
//   --dataset=neurons|uniform
//   --probes=<p>       ops in the replayed stream (default 20000)
//   --batch=<w>        window size for serve-batched (default 512)
//   --zipf=<s>         Zipf exponent for hotspot popularity (default 0.99);
//                      probes draw their center from 4096 hotspots, so hot
//                      probes repeat verbatim — the duplicate-reuse path.
//   --mix=<r:c:k:u>    op mix in percent, range:count:knn:update
//                      (default 70:15:10:5)
//   --trace=<path>     replay a trace file instead of the Zipf stream.
//                      Text, one op per line (see ROADMAP "serving bench"):
//                        R cx cy cz half    range probe, cube half-extent
//                        C cx cy cz half    counting range probe
//                        K cx cy cz k      knn probe
//                        U id cx cy cz half  update: element id -> new cube
//                      '#' starts a comment line.
//   --reps=<r>         timed replays per mode (default 3; median throughput,
//                      latencies pooled across reps)
//   --threads/--layout/--shards/--compact  MemGrid knobs as in
//                      bench_micro
//   --json=<path>      emit bench_util JSON records
//   --selfcheck        after writing --json, re-read it and fail (exit 3)
//                      unless every record parses with nonzero throughput —
//                      the `serving` ctest label's sub-second smoke
//   --failpoints=<spec> arm failpoints (requires -DSIMSPATIAL_FAILPOINTS=ON;
//                      the JSON records failpoints=1 and bench_trajectory
//                      refuses to gate such runs)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/memgrid.h"
#include "datagen/neuron.h"
#include "grid/resolution.h"

namespace simspatial {
namespace {

using bench::Flags;
using bench::JsonWriter;

enum class OpType { kRange, kCount, kKnn, kUpdate };

struct Op {
  OpType type;
  AABB box;       // kRange/kCount probe / kUpdate new box
  Vec3 point;     // kKnn probe
  std::size_t k = 0;
  ElementId id = kInvalidElement;  // kUpdate target
};

// The Zipf hotspot sampler lives in common/rng.h (ZipfSampler) — shared
// with the distribution-shape unit test and future datagen workloads.

struct Mix {
  double range = 0.70;
  double count = 0.15;
  double knn = 0.10;
  double update = 0.05;
};

bool ParseMix(const std::string& spec, Mix* mix) {
  double r = 0, c = 0, k = 0, u = 0;
  char c1 = 0, c2 = 0, c3 = 0;
  std::istringstream in(spec);
  if (!(in >> r >> c1 >> c >> c2 >> k >> c3 >> u) || c1 != ':' ||
      c2 != ':' || c3 != ':') {
    return false;
  }
  const double total = r + c + k + u;
  if (total <= 0) return false;
  mix->range = r / total;
  mix->count = c / total;
  mix->knn = k / total;
  mix->update = u / total;
  return true;
}

/// Zipf-driven op stream: probe centers come verbatim from a fixed hotspot
/// set whose popularity is Zipf(s), so the hot head repeats exact probes —
/// the serving regime the batch engine's duplicate reuse targets. Count
/// probes model density monitoring at a slightly wider extent than the
/// materialising ranges. Updates displace a uniformly-drawn element
/// towards a hotspot.
std::vector<Op> MakeZipfStream(const std::vector<Element>& elems,
                               const AABB& universe, std::size_t ops,
                               double zipf, const Mix& mix,
                               std::uint64_t seed) {
  constexpr std::size_t kHotspots = 4096;
  Rng rng(seed);
  std::vector<Vec3> centers;
  centers.reserve(kHotspots);
  for (std::size_t i = 0; i < kHotspots; ++i) {
    centers.push_back(rng.PointIn(universe));
  }
  const ZipfSampler sampler(kHotspots, zipf);
  const Vec3 ext = universe.Extent();
  const float side = std::max({ext.x, ext.y, ext.z});
  const float range_half = side * 0.01f;  // small in-situ monitoring probes
  const float count_half = side * 0.015f;
  const float elem_half = side * 0.002f;
  std::vector<Op> stream;
  stream.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const double draw = rng.NextDouble();
    Op op;
    if (draw < mix.range) {
      op.type = OpType::kRange;
      op.box = AABB::FromCenterHalfExtent(centers[sampler.Sample(&rng)],
                                          range_half);
    } else if (draw < mix.range + mix.count) {
      op.type = OpType::kCount;
      op.box = AABB::FromCenterHalfExtent(centers[sampler.Sample(&rng)],
                                          count_half);
    } else if (draw < mix.range + mix.count + mix.knn) {
      op.type = OpType::kKnn;
      op.point = centers[sampler.Sample(&rng)];
      op.k = 10;
    } else {
      op.type = OpType::kUpdate;
      op.id = static_cast<ElementId>(rng.NextBelow(elems.size()));
      const Vec3 hot = centers[sampler.Sample(&rng)];
      const Vec3 cur = elems[op.id].box.Center();
      const Vec3 dest(cur.x + (hot.x - cur.x) * 0.01f,
                      cur.y + (hot.y - cur.y) * 0.01f,
                      cur.z + (hot.z - cur.z) * 0.01f);
      op.box = AABB::FromCenterHalfExtent(dest, elem_half);
    }
    stream.push_back(op);
  }
  return stream;
}

bool LoadTrace(const std::string& path, std::vector<Op>* stream) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open trace %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string tag;
    if (!(ls >> tag) || tag[0] == '#') continue;
    Op op;
    bool ok = false;
    if (tag == "R" || tag == "C") {
      float cx, cy, cz, half;
      if ((ok = static_cast<bool>(ls >> cx >> cy >> cz >> half))) {
        op.type = tag == "R" ? OpType::kRange : OpType::kCount;
        op.box = AABB::FromCenterHalfExtent(Vec3(cx, cy, cz), half);
      }
    } else if (tag == "K") {
      float cx, cy, cz;
      std::size_t k;
      if ((ok = static_cast<bool>(ls >> cx >> cy >> cz >> k))) {
        op.type = OpType::kKnn;
        op.point = Vec3(cx, cy, cz);
        op.k = k;
      }
    } else if (tag == "U") {
      std::uint64_t id;
      float cx, cy, cz, half;
      if ((ok = static_cast<bool>(ls >> id >> cx >> cy >> cz >> half))) {
        op.type = OpType::kUpdate;
        op.id = static_cast<ElementId>(id);
        op.box = AABB::FromCenterHalfExtent(Vec3(cx, cy, cz), half);
      }
    }
    if (!ok) {
      std::fprintf(stderr, "malformed trace line %zu: %s\n", lineno,
                   line.c_str());
      return false;
    }
    stream->push_back(op);
  }
  return true;
}

struct ModeResult {
  double throughput_ops_per_s = 0;  ///< median across reps, all ops counted
  bench::PercentileRecorder latencies;  ///< query ns, pooled across reps
  std::size_t query_ops = 0;
  std::size_t update_ops = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One replay of the stream, per-probe mode. Returns wall ns; appends one
/// latency sample per query op.
double ReplayProbe(core::MemGrid* grid, const std::vector<Op>& stream,
                   bench::PercentileRecorder* latencies) {
  std::vector<ElementId> out;
  Stopwatch total;
  for (const Op& op : stream) {
    switch (op.type) {
      case OpType::kRange: {
        Stopwatch sw;
        grid->RangeQuery(op.box, &out);
        latencies->Add(sw.ElapsedNs());
        break;
      }
      case OpType::kCount: {
        Stopwatch sw;
        grid->RangeQueryCount(op.box);
        latencies->Add(sw.ElapsedNs());
        break;
      }
      case OpType::kKnn: {
        Stopwatch sw;
        grid->KnnQuery(op.point, op.k, &out);
        latencies->Add(sw.ElapsedNs());
        break;
      }
      case OpType::kUpdate: {
        const ElementUpdate upd(op.id, op.box);
        grid->ApplyUpdates({&upd, 1});
        break;
      }
    }
  }
  return total.ElapsedNs();
}

/// One replay of the stream, batched mode: windows of `window` ops, each
/// window applying its updates as one batch and serving its probes through
/// the batch engine. A probe's latency is its batch call's wall time.
double ReplayBatched(core::MemGrid* grid, const std::vector<Op>& stream,
                     std::size_t window,
                     bench::PercentileRecorder* latencies) {
  std::vector<AABB> ranges;
  std::vector<AABB> count_probes;
  std::vector<Vec3> knns;
  std::vector<ElementUpdate> updates;
  std::vector<std::vector<ElementId>> slots;
  std::vector<std::size_t> counts;
  Stopwatch total;
  for (std::size_t begin = 0; begin < stream.size(); begin += window) {
    const std::size_t end = std::min(begin + window, stream.size());
    ranges.clear();
    count_probes.clear();
    knns.clear();
    updates.clear();
    std::size_t knn_k = 10;
    for (std::size_t i = begin; i < end; ++i) {
      const Op& op = stream[i];
      switch (op.type) {
        case OpType::kRange: ranges.push_back(op.box); break;
        case OpType::kCount: count_probes.push_back(op.box); break;
        case OpType::kKnn: knns.push_back(op.point); knn_k = op.k; break;
        case OpType::kUpdate: updates.emplace_back(op.id, op.box); break;
      }
    }
    if (!updates.empty()) grid->ApplyUpdates(updates);
    if (!ranges.empty()) {
      Stopwatch sw;
      grid->RangeQueryBatch(ranges, &slots);
      const double ns = sw.ElapsedNs();
      for (std::size_t i = 0; i < ranges.size(); ++i) latencies->Add(ns);
    }
    if (!count_probes.empty()) {
      Stopwatch sw;
      grid->RangeQueryCountBatch(count_probes, &counts);
      const double ns = sw.ElapsedNs();
      for (std::size_t i = 0; i < count_probes.size(); ++i) {
        latencies->Add(ns);
      }
    }
    if (!knns.empty()) {
      Stopwatch sw;
      grid->KnnQueryBatch(knns, knn_k, &slots);
      const double ns = sw.ElapsedNs();
      for (std::size_t i = 0; i < knns.size(); ++i) latencies->Add(ns);
    }
  }
  return total.ElapsedNs();
}

}  // namespace

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t n = flags.GetSize("n", 1000000);
  const std::size_t probes = std::max<std::size_t>(1,
                                                   flags.GetSize("probes",
                                                                 20000));
  const std::size_t window =
      std::max<std::size_t>(1, flags.GetSize("batch", 512));
  const double zipf = flags.GetDouble("zipf", 0.99);
  const std::size_t reps = std::max<std::size_t>(1, flags.GetSize("reps", 3));
  const std::string dataset_name = flags.GetString("dataset", "neurons");
  const std::string trace_path = flags.GetString("trace", "");
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
  const auto compact = static_cast<std::uint32_t>(flags.GetSize("compact", 0));
  Mix mix;
  const std::string mix_spec = flags.GetString("mix", "70:15:10:5");
  if (!ParseMix(mix_spec, &mix)) {
    std::fprintf(stderr, "malformed --mix=%s (expected r:c:k:u percents)\n",
                 mix_spec.c_str());
    return 2;
  }
  const std::string failpoints_spec = flags.GetString("failpoints", "");
  if (!failpoints_spec.empty()) {
    if (!fail::kCompiledIn) {
      std::fprintf(stderr,
                   "--failpoints given but this binary was built without "
                   "-DSIMSPATIAL_FAILPOINTS=ON\n");
      return 2;
    }
    if (!fail::Registry::Global().ConfigureFromSpec(failpoints_spec)) {
      std::fprintf(stderr, "malformed --failpoints spec: %s\n",
                   failpoints_spec.c_str());
      return 2;
    }
  }
  fail::Registry::Global().ConfigureFromEnv();
  JsonWriter json(flags.GetString("json", ""));

  bench::PrintHeader(
      "Serving workload: batched vs per-probe query throughput + tails",
      "workload premise of §2.2 (millions of small queries per tick)");

  std::vector<Element> elems;
  AABB universe;
  if (dataset_name == "uniform") {
    const float side = std::max(
        50.0f, static_cast<float>(std::cbrt(8.0 * static_cast<double>(n))));
    universe = AABB(Vec3(0, 0, 0), Vec3(side, side, side));
    elems = datagen::GenerateUniformBoxes(n, universe, 0.05f, 0.5f);
  } else {
    auto ds = bench::MakeBenchDataset(n);
    universe = ds.universe;
    elems = std::move(ds.elements);
  }

  std::vector<Op> stream;
  if (!trace_path.empty()) {
    if (!LoadTrace(trace_path, &stream)) return 2;
  } else {
    stream = MakeZipfStream(elems, universe, probes, zipf, mix, 131);
  }
  std::size_t query_ops = 0;
  std::size_t update_ops = 0;
  for (const Op& op : stream) {
    if (op.type == OpType::kUpdate) {
      ++update_ops;
    } else {
      ++query_ops;
    }
  }
  const std::string source =
      trace_path.empty() ? "mix " + mix_spec : "trace " + trace_path;
  std::printf("dataset: %zu %s elements; stream: %zu ops (%zu queries, %zu "
              "updates, %s), window %zu, zipf %.2f, threads %u, layout %s, "
              "shards %u, compact %u, reps %zu\n",
              n, dataset_name.c_str(), stream.size(), query_ops, update_ops,
              source.c_str(), window, zipf, par::ResolveThreads(threads),
              core::ToString(layout), shards, compact, reps);

  const auto stats = grid::DatasetStats::Compute(elems, universe);
  core::MemGridConfig mg_cfg;
  mg_cfg.cell_size = std::max(
      grid::ChooseCellSize(stats, std::max(1e-3, stats.mean_extent * 8.0)),
      static_cast<float>(stats.max_extent) * 1.01f);
  mg_cfg.threads = threads;
  mg_cfg.layout = layout;
  mg_cfg.shards = shards;
  mg_cfg.compact_regions_per_batch = compact;

  // Each mode replays the same stream against a freshly-built grid. Update
  // ops set absolute boxes, so reps beyond the first replay onto identical
  // state in both modes — the comparison stays apples-to-apples.
  const auto run_mode = [&](bool batched) {
    core::MemGrid grid(universe, mg_cfg);
    grid.Build(elems);
    std::vector<double> rep_throughput;
    ModeResult res;
    for (std::size_t r = 0; r < reps; ++r) {
      const double ns =
          batched ? ReplayBatched(&grid, stream, window, &res.latencies)
                  : ReplayProbe(&grid, stream, &res.latencies);
      rep_throughput.push_back(static_cast<double>(stream.size()) * 1e9 / ns);
    }
    res.throughput_ops_per_s = Median(std::move(rep_throughput));
    res.query_ops = query_ops;
    res.update_ops = update_ops;
    return res;
  };

  const ModeResult probe_res = run_mode(/*batched=*/false);
  const ModeResult batched_res = run_mode(/*batched=*/true);

  TablePrinter t({"mode", "ops/s", "p50 us", "p95 us", "p99 us", "max us"});
  const auto emit = [&](const char* kernel, const ModeResult& r) {
    t.AddRow({kernel, TablePrinter::Num(r.throughput_ops_per_s, 0),
              TablePrinter::Num(r.latencies.P50() / 1e3, 1),
              TablePrinter::Num(r.latencies.P95() / 1e3, 1),
              TablePrinter::Num(r.latencies.P99() / 1e3, 1),
              TablePrinter::Num(r.latencies.Max() / 1e3, 1)});
    json.BeginRecord();
    json.Field("bench", "bench_serving");
    json.Field("kernel", kernel);
    json.Field("structure", "memgrid");
    json.Field("dataset", dataset_name);
    json.Field("n", static_cast<double>(n));
    json.Field("threads", static_cast<double>(par::ResolveThreads(threads)));
    json.Field("layout", core::ToString(layout));
    json.Field("shards", static_cast<double>(shards));
    json.Field("compact_regions", static_cast<double>(compact));
    json.Field("batch", static_cast<double>(window));
    json.Field("zipf", zipf);
    json.Field("mix", mix_spec);
    json.Field("trace", trace_path);
    json.Field("probes", static_cast<double>(stream.size()));
    json.Field("failpoints", fail::kCompiledIn ? 1.0 : 0.0);
    json.Field("throughput_ops_per_s", r.throughput_ops_per_s);
    r.latencies.EmitJson(&json);
  };
  emit("serve-probe", probe_res);
  emit("serve-batched", batched_res);
  t.Print();
  json.Flush();

  bench::PrintClaim(
      "batched rank-ordered serving sustains >=10% more throughput than "
      "the per-probe loop",
      batched_res.throughput_ops_per_s >=
          1.10 * probe_res.throughput_ops_per_s);

  // --selfcheck: re-read the JSON we just wrote and fail unless every
  // record parses with nonzero throughput. This is what the `serving`
  // ctest label's sub-second smoke asserts.
  if (flags.GetSize("selfcheck", 0) != 0) {
    const std::string json_path = flags.GetString("json", "");
    if (json_path.empty()) {
      std::fprintf(stderr, "--selfcheck requires --json=<path>\n");
      return 3;
    }
    bool ok = false;
    const std::vector<bench::Record> records =
        bench::LoadRecords(json_path, &ok);
    if (!ok || records.empty()) {
      std::fprintf(stderr, "selfcheck: %s is missing or malformed\n",
                   json_path.c_str());
      return 3;
    }
    for (const bench::Record& rec : records) {
      if (bench::Get(rec, "bench") != "bench_serving" ||
          std::atof(bench::Get(rec, "throughput_ops_per_s").c_str()) <= 0) {
        std::fprintf(stderr,
                     "selfcheck: record kernel=%s has bad bench tag or "
                     "nonpositive throughput\n",
                     bench::Get(rec, "kernel").c_str());
        return 3;
      }
    }
    std::printf("selfcheck: %zu records OK\n", records.size());
  }
  return 0;
}

}  // namespace simspatial

int main(int argc, char** argv) { return simspatial::Main(argc, argv); }
