// SimSpatial — instrumentation: operation counters and the calibrated cost
// model behind the Figure 2 / Figure 3 breakdowns.
//
// The paper decomposes R-Tree query time into "reading data", "intersection
// tests (tree)", "intersection tests (elements)" and "remaining
// computation". Timing each ~20 ns intersection test directly would perturb
// the measured loop, so the library instead *counts* operations on the query
// path and converts counts to time with per-operation unit costs measured
// once by a calibration microbenchmark. The residual between attributed and
// measured wall time is reported as "remaining computation".

#ifndef SIMSPATIAL_COMMON_COUNTERS_H_
#define SIMSPATIAL_COMMON_COUNTERS_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace simspatial {

/// Operation counters accumulated along a query / update / build path.
///
/// Counters are plain members (no atomics): each index instance is
/// single-threaded by design, matching the per-rank execution model of the
/// MPI simulations the paper targets.
struct QueryCounters {
  /// Intersection tests between the query and *inner* index structures
  /// (R-Tree directory MBRs, octree cell bounds, grid-cell bounds...).
  std::uint64_t structure_tests = 0;
  /// Intersection tests between the query and element bounding boxes.
  std::uint64_t element_tests = 0;
  /// Distance computations (kNN / distance join refinement).
  std::uint64_t distance_computations = 0;
  /// Nodes / cells / buckets visited.
  std::uint64_t nodes_visited = 0;
  /// Pointer dereferences following the index structure.
  std::uint64_t pointer_hops = 0;
  /// Bytes touched by the query processor (node scans, bucket scans...).
  /// Informational: this traffic overlaps with the intersection-test work
  /// and is NOT separately charged by AttributeTime.
  std::uint64_t bytes_read = 0;
  /// Bytes that crossed the storage (I/O) layer; charged as reading time.
  std::uint64_t io_bytes = 0;
  /// Pages fetched from the (simulated) disk.
  std::uint64_t pages_read = 0;
  /// Pages served from the buffer pool without disk access.
  std::uint64_t buffer_hits = 0;
  /// Page reads retried after a transient I/O fault or checksum mismatch
  /// (each retry also charges its exponential backoff into io_virtual_ns).
  std::uint64_t io_retries = 0;
  /// Virtual nanoseconds charged by the simulated disk cost model.
  std::uint64_t io_virtual_ns = 0;
  /// Result tuples produced.
  std::uint64_t results = 0;

  void Reset() { *this = QueryCounters{}; }

  QueryCounters& operator+=(const QueryCounters& o) {
    structure_tests += o.structure_tests;
    element_tests += o.element_tests;
    distance_computations += o.distance_computations;
    nodes_visited += o.nodes_visited;
    pointer_hops += o.pointer_hops;
    bytes_read += o.bytes_read;
    io_bytes += o.io_bytes;
    pages_read += o.pages_read;
    buffer_hits += o.buffer_hits;
    io_retries += o.io_retries;
    io_virtual_ns += o.io_virtual_ns;
    results += o.results;
    return *this;
  }

  /// Total box-intersection tests (tree + elements).
  std::uint64_t TotalIntersectionTests() const {
    return structure_tests + element_tests;
  }

  /// Counter totals are part of the determinism contract (identical across
  /// threads/layout/shards/batch), so the batteries compare whole
  /// counter sets at once.
  bool operator==(const QueryCounters&) const = default;
};

/// Per-operation unit costs in nanoseconds, measured on this machine by
/// `CalibrateCostModel()` or taken from conservative defaults.
struct CostModel {
  double ns_per_structure_test = 2.5;
  double ns_per_element_test = 2.5;
  double ns_per_distance = 6.0;
  double ns_per_pointer_hop = 4.0;
  /// Exact-geometry refinement (capsule vs box) of one candidate.
  double ns_per_refinement = 60.0;
  /// Cost of streaming one byte of payload through the memory hierarchy.
  double ns_per_byte_read = 0.03;

  /// Measure unit costs with tight microbenchmark loops. Deterministic
  /// work, ~50 ms total. Safe to call once per process.
  static CostModel Calibrate();

  /// Library defaults (roughly a 2012-era 2.7 GHz Opteron, matching the
  /// paper's Appendix A testbed; used when calibration is disabled).
  static CostModel Defaults() { return CostModel{}; }
};

/// Wall-time → category attribution for the Figure 2/3 experiments.
struct TimeBreakdown {
  double total_ns = 0;        ///< Measured (compute) + virtual I/O time.
  double reading_ns = 0;      ///< Data transfer: bytes + simulated disk I/O.
  double tree_test_ns = 0;    ///< Intersection tests against the structure.
  double element_test_ns = 0; ///< Intersection tests against elements.
  double remaining_ns = 0;    ///< Residual computation (heap ops, copies...).

  double ReadingPct() const { return Pct(reading_ns); }
  double TreeTestPct() const { return Pct(tree_test_ns); }
  double ElementTestPct() const { return Pct(element_test_ns); }
  double RemainingPct() const { return Pct(remaining_ns); }
  /// "Computations" in the paper's Figure 2 = everything but reading.
  double ComputationPct() const {
    return 100.0 - ReadingPct();
  }

 private:
  double Pct(double v) const { return total_ns > 0 ? 100.0 * v / total_ns : 0; }
};

/// Attribute `measured_compute_ns` of wall time plus the counters' virtual
/// I/O time to the paper's categories using `model`.
TimeBreakdown AttributeTime(const QueryCounters& counters,
                            double measured_compute_ns,
                            const CostModel& model);

/// Monotonic stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}
  void Restart() { start_ = Clock::now(); }
  double ElapsedNs() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - start_)
        .count();
  }
  double ElapsedMs() const { return ElapsedNs() / 1e6; }
  double ElapsedSeconds() const { return ElapsedNs() / 1e9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Human-readable duration ("1.23 s", "45.6 ms", "789 ns").
std::string FormatDuration(double ns);

}  // namespace simspatial

#endif  // SIMSPATIAL_COMMON_COUNTERS_H_
