// SimSpatial — unified spatial index interface.
//
// One polymorphic facade over every index family in the library so that the
// differential test suite and the comparison benches can sweep them under a
// single protocol. Concrete structures keep their richer native APIs; the
// adapters live in core/registry.cc.

#ifndef SIMSPATIAL_CORE_SPATIAL_INDEX_H_
#define SIMSPATIAL_CORE_SPATIAL_INDEX_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.h"
#include "common/element.h"
#include "common/threads.h"
#include "core/cell_layout.h"

namespace simspatial::core {

/// Polymorphic spatial index over volumetric elements.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual std::string_view name() const = 0;

  /// Discard content and load `elements` inside `universe`.
  virtual void Build(std::span<const Element> elements,
                     const AABB& universe) = 0;

  /// All element ids whose box intersects `range` (order unspecified).
  virtual void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                          QueryCounters* counters = nullptr) const = 0;

  /// Number of elements a RangeQuery would return. The default materialises
  /// the ids and counts them; structures with a native counting traversal
  /// (MemGrid) override it to skip the output allocation.
  virtual std::size_t RangeQueryCount(const AABB& range,
                                      QueryCounters* counters = nullptr) const {
    std::vector<ElementId> scratch;
    RangeQuery(range, &scratch, counters);
    return scratch.size();
  }

  /// Up to k ids by increasing box distance (ties by id). Approximate
  /// implementations (see KnnIsExact) may miss true neighbours.
  virtual void KnnQuery(const Vec3& p, std::size_t k,
                        std::vector<ElementId>* out,
                        QueryCounters* counters = nullptr) const = 0;

  /// Answer a whole batch of range probes: slot i of `out` receives exactly
  /// what RangeQuery(probes[i]) would produce — same ids, same order — and
  /// `counters` accumulates the same totals as the per-probe loop. The
  /// batch is therefore a pure THROUGHPUT knob, never a semantics knob.
  /// The default is the per-probe loop; structures with a profitable
  /// scheduled traversal (MemGrid's rank-ordered probe walk) override it.
  virtual void RangeQueryBatch(std::span<const AABB> probes,
                               std::vector<std::vector<ElementId>>* out,
                               QueryCounters* counters = nullptr) const {
    out->resize(probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      RangeQuery(probes[i], &(*out)[i], counters);
    }
  }

  /// Batched counting with the same contract: (*counts)[i] is exactly
  /// RangeQueryCount(probes[i]); returns the batch total. The default is
  /// the per-probe counting loop (which itself defaults to materialise-
  /// and-count above).
  virtual std::size_t RangeQueryCountBatch(
      std::span<const AABB> probes, std::vector<std::size_t>* counts,
      QueryCounters* counters = nullptr) const {
    counts->assign(probes.size(), 0);
    std::size_t total = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      (*counts)[i] = RangeQueryCount(probes[i], counters);
      total += (*counts)[i];
    }
    return total;
  }

  /// Batched kNN with the same contract: slot i is KnnQuery(points[i], k)
  /// verbatim (including approximate structures — the default loop IS the
  /// per-probe path).
  virtual void KnnQueryBatch(std::span<const Vec3> points, std::size_t k,
                             std::vector<std::vector<ElementId>>* out,
                             QueryCounters* counters = nullptr) const {
    out->resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      KnnQuery(points[i], k, &(*out)[i], counters);
    }
  }

  /// Whether ApplyUpdates() is supported (static structures return false
  /// and must be rebuilt instead).
  virtual bool SupportsUpdates() const { return false; }

  /// Apply positional updates; returns how many were applied.
  virtual std::size_t ApplyUpdates(std::span<const ElementUpdate> updates) {
    (void)updates;
    return 0;
  }

  /// False for approximate kNN (LSH); differential tests then check recall
  /// instead of exact equality.
  virtual bool KnnIsExact() const { return true; }

  /// False for structures that only answer kNN (LSH); RangeQuery on them
  /// returns nothing and callers must not rely on it.
  virtual bool SupportsRangeQueries() const { return true; }

  virtual std::size_t size() const = 0;

  /// Approximate structure footprint in bytes (0 = not reported).
  virtual std::size_t MemoryBytes() const { return 0; }

  /// Structural self-check (used by the differential batteries between
  /// phases). Structures without one report healthy.
  virtual bool CheckInvariants(std::string* error) const {
    (void)error;
    return true;
  }
};

/// Cross-cutting construction knobs applied by MakeIndex to structures
/// that support them (currently the MemGrid profiles' worker-thread and
/// cell-layout knobs; other adapters ignore them).
struct IndexOptions {
  /// Worker threads for parallel-capable structures: par::kThreadsAuto
  /// resolves to the hardware concurrency, 0 forces the serial paths.
  std::uint32_t threads = par::kThreadsAuto;
  /// Cell-region storage order for the base MemGrid profiles ("memgrid",
  /// "memgrid-padded"). The dedicated "memgrid-morton"/"memgrid-hilbert"
  /// profiles pin their own curve and ignore this knob.
  CellLayout layout = CellLayout::kRowMajor;
  /// Entry-block shards for the MemGrid profiles: contiguous layout-rank
  /// ranges with independent storage and compaction, bounding the
  /// worst-case mutation stall at O(n/shards). 1 (default) keeps the
  /// single-block layout; results are identical at every shard count. The
  /// dedicated "memgrid-sharded" profile pins its own value.
  std::uint32_t shards = 1;
  /// Incremental compaction budget for the MemGrid profiles: maximum cell
  /// regions relocated per shard per ApplyUpdates batch (0 = off; churn is
  /// then reclaimed by per-shard re-layouts only).
  std::uint32_t compact_regions_per_batch = 0;
};

/// Construct an index by registry name (see registry.cc). Returns nullptr
/// for unknown names.
std::unique_ptr<SpatialIndex> MakeIndex(std::string_view name);
std::unique_ptr<SpatialIndex> MakeIndex(std::string_view name,
                                        const IndexOptions& options);

/// All registered index names, in presentation order.
std::vector<std::string> AllIndexNames();

}  // namespace simspatial::core

#endif  // SIMSPATIAL_CORE_SPATIAL_INDEX_H_
