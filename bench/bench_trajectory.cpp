// Perf trajectory gate (ROADMAP item): run bench_micro --json at the
// committed baseline's scale and compare per-(kernel, structure) medians
// against BENCH_micro.json.
//
// Gate metric: the MEDIAN of the per-record ns/op ratios (new / baseline).
// Each bench_micro record is already a median over --reps repetitions, so a
// single noisy kernel cannot fail the gate and a single lucky kernel cannot
// mask a broad regression — the gate trips only when the bulk of the
// kernels got slower than --max-regression (default 0.25, i.e. >25%).
// Per-record outliers are reported as warnings for humans to chase.
//
// Coverage gate: every committed baseline record must match a fresh
// record — unmatched records from either side are reported by name, and a
// matched count below the baseline's record count FAILS (a bench that
// silently dropped kernels would otherwise keep passing while guarding
// less and less).
//
// If the gate fails on genuinely different hardware (the baseline encodes
// the machine it was measured on), regenerate the baseline with the
// re-measure command printed on failure and commit the new BENCH_micro.json.
//
// Flags:
//   --bench=<path>          bench_micro binary (required)
//   --baseline=<path>       committed BENCH_micro.json (required)
//   --json-out=<path>       where the fresh run writes its JSON
//   --reps=<r>              repetitions per kernel (default 7)
//   --max-regression=<f>    allowed median slowdown fraction (default 0.25)
//   --serving-bench=<path>     bench_serving binary (optional; enables the
//                              serving gate together with the next flag)
//   --serving-baseline=<path>  committed BENCH_serving.json
//   --serving-json-out=<path>  where the fresh serving run writes its JSON
//   --serving-reps=<r>         serving replays per mode (default 3)
//
// The serving gate replays the baseline's workload (n, dataset, layout,
// shards, compact, batch window, zipf, mix, probe count are all rebuilt
// from the committed front record) and gates BOTH directions of
// regression per (kernel, structure): sustained throughput (baseline/new,
// so a throughput LOSS trips it) and p95 latency (new/baseline). Either
// median exceeding 1 + max-regression fails; instrumented
// (failpoints=1) baselines or fresh runs are refused, as for bench_micro.
// So are baselines whose "decomp" field names a large-probe traversal
// other than "runs": the BIGMIN run walk is the only one left, so such a
// baseline timed code that no longer exists.
//
// A regression in the micro gate does not skip the serving gate: both
// run, each prints a `trajectory(micro|serving): OK|REGRESSION|ERROR`
// verdict, and the exit code is the worse of the two (0 OK, 1 regression,
// 2 setup or coverage error).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"

namespace simspatial {
namespace {

using bench::Flags;
// Record parsing (Record/ParseRecords/LoadRecords/Get) is shared with
// bench_serving's --selfcheck via bench_util.h.
using bench::Get;
using bench::LoadRecords;
using bench::Record;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// True (after explaining why) when a baseline was timed on a large-probe
/// traversal other than the BIGMIN run walk ("runs"), the only one the
/// benches still run: its numbers describe code that no longer exists.
bool RetiredTraversal(const Record& front, const std::string& path) {
  const std::string decomp = Get(front, "decomp");
  if (decomp.empty() || decomp == "runs") return false;
  std::fprintf(stderr,
               "trajectory: baseline %s was measured on the \"%s\" "
               "range traversal, which no longer exists — regenerate it\n",
               path.c_str(), decomp.c_str());
  return true;
}

/// Serving-workload gate: rerun bench_serving at the committed baseline's
/// workload and gate per-(kernel, structure) throughput and p95 latency.
/// Returns 0 = OK, 1 = regression, 2 = setup/coverage error.
int RunServingGate(const std::string& bench, const std::string& baseline_path,
                   const std::string& out_path, std::size_t reps,
                   double max_regression) {
  bool ok = true;
  const auto baseline = LoadRecords(baseline_path, &ok);
  if (!ok || baseline.empty()) {
    std::fprintf(stderr, "trajectory: serving baseline %s is empty or "
                         "malformed\n",
                 baseline_path.c_str());
    return 2;
  }
  const Record& front = baseline.front();
  if (Get(front, "failpoints") == "1") {
    std::fprintf(stderr,
                 "trajectory: serving baseline %s was measured with "
                 "SIMSPATIAL_FAILPOINTS=ON — regenerate it with a "
                 "production (failpoints-OFF) build\n",
                 baseline_path.c_str());
    return 2;
  }
  if (RetiredTraversal(front, baseline_path)) return 2;
  // A trace-driven baseline references a file that need not exist on the
  // gating machine; only the self-contained Zipf workload is reproducible.
  if (!Get(front, "trace").empty()) {
    std::fprintf(stderr,
                 "trajectory: serving baseline %s was trace-driven — only "
                 "Zipf-stream baselines are reproducible; regenerate "
                 "without --trace\n",
                 baseline_path.c_str());
    return 2;
  }
  const std::string n = Get(front, "n");
  const std::string dataset = Get(front, "dataset");
  if (n.empty() || dataset.empty()) {
    std::fprintf(stderr,
                 "trajectory: serving baseline lacks n/dataset fields\n");
    return 2;
  }
  const auto opt = [&](const char* flag, const std::string& value) {
    return value.empty() ? std::string()
                         : std::string(" --") + flag + "=" + value;
  };
  const std::string cmd =
      "\"" + bench + "\" --n=" + n + " --dataset=" + dataset +
      " --reps=" + std::to_string(reps) + " --threads=1" +
      opt("layout", Get(front, "layout")) +
      opt("shards", Get(front, "shards")) +
      opt("compact", Get(front, "compact_regions")) +
      opt("batch", Get(front, "batch")) + opt("zipf", Get(front, "zipf")) +
      opt("mix", Get(front, "mix")) + opt("probes", Get(front, "probes")) +
      " --json=\"" + out_path + "\"";
  std::printf("trajectory(serving): %s\n", cmd.c_str());
  std::fflush(stdout);
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "trajectory: serving bench run failed\n");
    return 2;
  }
  const auto fresh = LoadRecords(out_path, &ok);
  if (!ok || fresh.empty()) {
    std::fprintf(stderr,
                 "trajectory: fresh serving run produced no records\n");
    return 2;
  }
  if (Get(fresh.front(), "failpoints") == "1") {
    std::fprintf(stderr,
                 "trajectory: %s is a failpoint-instrumented build — its "
                 "numbers are not comparable to the production baseline\n",
                 bench.c_str());
    return 2;
  }

  std::map<std::pair<std::string, std::string>, const Record*> fresh_by_key;
  for (const Record& r : fresh) {
    fresh_by_key[{Get(r, "kernel"), Get(r, "structure")}] = &r;
  }
  std::vector<double> tput_ratios;
  std::vector<double> p95_ratios;
  std::size_t matched = 0;
  std::printf("\n%-14s %-10s %14s %14s %8s %8s\n", "kernel", "structure",
              "base ops/s", "new ops/s", "tput r", "p95 r");
  for (const Record& r : baseline) {
    const auto key = std::make_pair(Get(r, "kernel"), Get(r, "structure"));
    const auto it = fresh_by_key.find(key);
    const double base_tput =
        std::atof(Get(r, "throughput_ops_per_s").c_str());
    const double base_p95 = std::atof(Get(r, "p95_ns").c_str());
    const double new_tput =
        it == fresh_by_key.end()
            ? 0.0
            : std::atof(Get(*it->second, "throughput_ops_per_s").c_str());
    const double new_p95 =
        it == fresh_by_key.end()
            ? 0.0
            : std::atof(Get(*it->second, "p95_ns").c_str());
    if (base_tput <= 0.0 || base_p95 <= 0.0 || new_tput <= 0.0 ||
        new_p95 <= 0.0) {
      std::printf("%-14s %-10s %14.0f %14s %8s %8s (UNMATCHED)\n",
                  key.first.c_str(), key.second.c_str(), base_tput, "-", "-",
                  "-");
      std::fprintf(stderr, "trajectory: serving baseline record %s/%s did "
                           "not match the fresh run\n",
                   key.first.c_str(), key.second.c_str());
      continue;
    }
    // Throughput regresses DOWN, latency regresses UP — orient both ratios
    // so that >1 means "got worse" and one median gate covers them.
    const double tput_ratio = base_tput / new_tput;
    const double p95_ratio = new_p95 / base_p95;
    tput_ratios.push_back(tput_ratio);
    p95_ratios.push_back(p95_ratio);
    ++matched;
    std::printf("%-14s %-10s %14.0f %14.0f %8.3f %8.3f\n", key.first.c_str(),
                key.second.c_str(), base_tput, new_tput, tput_ratio,
                p95_ratio);
  }
  if (matched < baseline.size()) {
    std::fprintf(stderr,
                 "trajectory: only %zu of %zu serving baseline records "
                 "matched — regenerate %s with:\n  %s\n",
                 matched, baseline.size(), baseline_path.c_str(),
                 cmd.c_str());
    return 2;
  }
  const double tput_median = Median(tput_ratios);
  const double p95_median = Median(p95_ratios);
  std::printf("\ntrajectory(serving): %zu records matched, median "
              "throughput ratio %.3f, median p95 ratio %.3f (gate at "
              "%.3f)\n",
              matched, tput_median, p95_median, 1.0 + max_regression);
  if (tput_median > 1.0 + max_regression ||
      p95_median > 1.0 + max_regression) {
    std::fprintf(stderr,
                 "trajectory: SERVING REGRESSION — throughput ratio %.3f / "
                 "p95 ratio %.3f exceeds %.3f. If the hardware changed "
                 "rather than the code, re-measure the baseline:\n  %s\n"
                 "and commit it over %s\n",
                 tput_median, p95_median, 1.0 + max_regression, cmd.c_str(),
                 baseline_path.c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string bench = flags.GetString("bench", "");
  const std::string baseline_path = flags.GetString("baseline", "");
  const std::string out_path =
      flags.GetString("json-out", "BENCH_micro.gate.json");
  const std::size_t reps = flags.GetSize("reps", 7);
  const double max_regression = flags.GetDouble("max-regression", 0.25);
  const std::string serving_bench = flags.GetString("serving-bench", "");
  const std::string serving_baseline =
      flags.GetString("serving-baseline", "");
  const std::string serving_out =
      flags.GetString("serving-json-out", "BENCH_serving.gate.json");
  const std::size_t serving_reps = flags.GetSize("serving-reps", 3);
  if (bench.empty() || baseline_path.empty() ||
      serving_bench.empty() != serving_baseline.empty()) {
    std::fprintf(stderr,
                 "usage: bench_trajectory --bench=<bench_micro> "
                 "--baseline=<BENCH_micro.json> [--json-out=...] "
                 "[--reps=N] [--max-regression=F] "
                 "[--serving-bench=<bench_serving> "
                 "--serving-baseline=<BENCH_serving.json> "
                 "[--serving-json-out=...] [--serving-reps=N]]\n");
    return 2;
  }

  bool ok = true;
  const auto baseline = LoadRecords(baseline_path, &ok);
  if (!ok || baseline.empty()) {
    std::fprintf(stderr, "trajectory: baseline %s is empty or malformed\n",
                 baseline_path.c_str());
    return 2;
  }
  // The fresh run must reproduce the baseline's conditions (scale, dataset,
  // cell layout, shard count, serial kernels) or the per-record ratios are
  // meaningless.
  const std::string n = Get(baseline.front(), "n");
  const std::string dataset = Get(baseline.front(), "dataset");
  const std::string layout = Get(baseline.front(), "layout");
  const std::string shards = Get(baseline.front(), "shards");
  const std::string compact = Get(baseline.front(), "compact_regions");
  if (n.empty() || dataset.empty()) {
    std::fprintf(stderr, "trajectory: baseline lacks n/dataset fields\n");
    return 2;
  }
  // A baseline measured by a failpoint-instrumented binary carries hot-path
  // branches the production build lacks: gating against it would hide real
  // regressions (or invent phantom wins). Refuse outright.
  if (Get(baseline.front(), "failpoints") == "1") {
    std::fprintf(stderr,
                 "trajectory: baseline %s was measured with "
                 "SIMSPATIAL_FAILPOINTS=ON — regenerate it with a "
                 "production (failpoints-OFF) build\n",
                 baseline_path.c_str());
    return 2;
  }
  if (RetiredTraversal(baseline.front(), baseline_path)) return 2;
  const std::string cmd =
      "\"" + bench + "\" --n=" + n + " --dataset=" + dataset +
      " --reps=" + std::to_string(reps) + " --threads=1" +
      (layout.empty() ? "" : " --layout=" + layout) +
      (shards.empty() ? "" : " --shards=" + shards) +
      (compact.empty() ? "" : " --compact=" + compact) + " --json=\"" +
      out_path + "\"";
  std::printf("trajectory: %s\n", cmd.c_str());
  std::fflush(stdout);
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "trajectory: bench run failed\n");
    return 2;
  }
  const auto fresh = LoadRecords(out_path, &ok);
  if (!ok || fresh.empty()) {
    std::fprintf(stderr, "trajectory: fresh run produced no records\n");
    return 2;
  }
  if (Get(fresh.front(), "failpoints") == "1") {
    std::fprintf(stderr,
                 "trajectory: %s is a failpoint-instrumented build — its "
                 "numbers are not comparable to the production baseline\n",
                 bench.c_str());
    return 2;
  }

  std::map<std::pair<std::string, std::string>, double> fresh_ns;
  for (const Record& r : fresh) {
    fresh_ns[{Get(r, "kernel"), Get(r, "structure")}] =
        std::atof(Get(r, "ns_per_op").c_str());
  }
  std::vector<double> ratios;
  std::printf("\n%-14s %-18s %12s %12s %8s\n", "kernel", "structure",
              "base ns/op", "new ns/op", "ratio");
  std::size_t matched = 0;
  std::vector<std::string> outliers;
  // Kernels present in only one side must surface, not vanish: a silently
  // skipped pair means either the bench lost a kernel (the gate would
  // otherwise pass while guarding less) or grew one the baseline lacks.
  std::vector<std::string> baseline_only;
  std::vector<std::string> fresh_only;
  std::set<std::pair<std::string, std::string>> baseline_keys;
  for (const Record& r : baseline) {
    const auto key = std::make_pair(Get(r, "kernel"), Get(r, "structure"));
    baseline_keys.insert(key);
    const auto it = fresh_ns.find(key);
    const double base = std::atof(Get(r, "ns_per_op").c_str());
    if (it == fresh_ns.end() || base <= 0.0 || it->second <= 0.0) {
      // Distinguish a genuinely missing fresh record from one whose
      // measurement is unusable (ns_per_op <= 0 on either side) — the
      // operator debugs very different things for the two.
      std::printf("%-14s %-18s %12.1f %12s %8s (UNMATCHED%s)\n",
                  key.first.c_str(), key.second.c_str(), base, "-", "-",
                  it == fresh_ns.end() ? "" : ": non-positive ns_per_op");
      baseline_only.push_back(key.first + "/" + key.second +
                              (it == fresh_ns.end()
                                   ? ""
                                   : " (non-positive ns_per_op)"));
      continue;
    }
    const double ratio = it->second / base;
    ratios.push_back(ratio);
    ++matched;
    std::printf("%-14s %-18s %12.1f %12.1f %8.3f\n", key.first.c_str(),
                key.second.c_str(), base, it->second, ratio);
    if (ratio > 1.0 + 2.0 * max_regression) {
      outliers.push_back(key.first + "/" + key.second);
    }
  }
  for (const auto& [key, ns] : fresh_ns) {
    if (baseline_keys.find(key) == baseline_keys.end()) {
      fresh_only.push_back(key.first + "/" + key.second);
    }
  }
  for (const std::string& k : baseline_only) {
    std::fprintf(stderr, "trajectory: baseline record %s did not match the "
                         "fresh run\n",
                 k.c_str());
  }
  for (const std::string& k : fresh_only) {
    std::printf("trajectory: fresh kernel %s is not in the baseline — "
                "regenerate BENCH_micro.json to start gating it\n",
                k.c_str());
  }
  if (matched < baseline.size()) {
    std::fprintf(stderr,
                 "trajectory: only %zu of %zu baseline records matched — "
                 "the gate no longer covers the committed baseline. "
                 "Regenerate BENCH_micro.json with:\n  %s\n",
                 matched, baseline.size(), cmd.c_str());
    return 2;
  }
  const double median_ratio = Median(ratios);
  std::printf("\ntrajectory: %zu kernels matched, median ns/op ratio %.3f "
              "(gate at %.3f)\n",
              matched, median_ratio, 1.0 + max_regression);
  for (const std::string& o : outliers) {
    std::printf("warning: %s slowed by >%.0f%% (individual kernels do not "
                "gate; investigate if persistent)\n",
                o.c_str(), 200.0 * max_regression);
  }
  int micro_rc = 0;
  if (median_ratio > 1.0 + max_regression) {
    std::fprintf(stderr,
                 "trajectory: REGRESSION — median slowdown %.1f%% exceeds "
                 "%.0f%%. If the hardware changed rather than the code, "
                 "re-measure the baseline:\n  %s\nand commit it over %s\n",
                 100.0 * (median_ratio - 1.0), 100.0 * max_regression,
                 cmd.c_str(), baseline_path.c_str());
    micro_rc = 1;
  }
  // A red micro gate must not hide the serving gate: both replay, both
  // verdicts print, and the exit code is the worse of the two.
  int serving_rc = 0;
  if (!serving_bench.empty()) {
    serving_rc = RunServingGate(serving_bench, serving_baseline, serving_out,
                                serving_reps, max_regression);
  }
  const auto verdict = [](int rc) {
    return rc == 0 ? "OK" : rc == 1 ? "REGRESSION" : "ERROR";
  };
  std::printf("trajectory(micro): %s\n", verdict(micro_rc));
  if (!serving_bench.empty()) {
    std::printf("trajectory(serving): %s\n", verdict(serving_rc));
  }
  const int rc = std::max(micro_rc, serving_rc);
  if (rc == 0) std::printf("trajectory: OK\n");
  return rc;
}

}  // namespace
}  // namespace simspatial

int main(int argc, char** argv) { return simspatial::Main(argc, argv); }
