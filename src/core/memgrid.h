// SimSpatial — MemGrid: the paper's envisioned index class, realised.
//
// §5: "The solution ... is a new point in the design space: a spatial index
// that executes spatial queries and the spatial join faster than without
// index, but at the same time is faster to update or rebuild. ... an
// approach to address both challenges is likely to be based on grids."
//
// MemGrid combines every ingredient the paper derives:
//   * space-oriented uniform partitioning — no tree traversal, no inner-
//     node intersection tests (§3.1/§3.3);
//   * single-cell centre assignment — zero replication, so queries need no
//     deduplication and updates touch exactly one bucket; completeness is
//     restored by inflating the probe range by the dataset's largest
//     element half-extent (tracked online);
//   * rank-sharded always-compact slack-CSR storage (below) so queries
//     stream a handful of contiguous arrays (§3.3 node-size insight) while
//     mutations stay in place;
//   * O(n) counting-sort rebuild — the "faster to build" half of the §5
//     trade-off;
//   * displacement-aware updates — an element whose centre stays in its
//     cell costs one box write (§4.3: "only few elements switch grid cell
//     in every step");
//   * native self-join over forward neighbour cells (§4.3).
//
// Memory layout (rank-sharded slack CSR, curve-orderable)
// -------------------------------------------------------
// The cell lattice is ordered by a layout policy (`CellLayout`) that
// assigns every cell a RANK, while cell ADDRESSING stays raw row-major
// CellIndex everywhere:
//   * kRowMajor — x-major cell order (rank == cell index, zero metadata).
//     Queries probe a cube of cells, so only z-columns are rank-contiguous.
//   * kMorton / kHilbert — space-filling-curve order over the lattice. The
//     cells of a cubic probe collapse into a handful of long contiguous
//     rank runs (Hilbert: adjacent ranks are always lattice neighbours;
//     Morton: cheaper codec, occasional long jumps). A cached cell<->rank
//     map costs 8 bytes per cell plus one O(C) radix sort per grid.
//
// The rank space is split into `MemGridConfig::shards` contiguous ranges
// (entry-balanced at Build; default 1). Each shard owns its own entry
// block, and every cell owns a contiguous region of its shard's block
// described by `Region{start, cap, count}`: slots [start, start+count) are
// live, [start+count, start+cap) are gap ("slack") slots available to
// future inserts. By default every (re)layout leaves ceil(count/8) gap
// slots per occupied region (`slack_fraction` 0.125): the few elements
// that switch cell in a step (§4.3) then land in place instead of
// relocating their whole destination region, which is what kept a
// gap-free block re-laying itself out every few steps under a §4.1
// update storm. `slack_fraction` 0 gives the classical gap-free CSR block
// (one contiguous stream per shard) for callers that never mutate.
//
// Mutations never copy the index:
//   * in-place update  — one box store at the slot given by the dense
//     slot map (no hashing, no bucket scan);
//   * erase            — swap-remove with the region's last live slot;
//   * insert/migration — consumes a slack slot of the destination region.
// A region without slack is relocated to fresh, geometrically larger
// capacity at its shard's tail (amortized O(1) even for a hot cell); the
// abandoned slots are dead space — and the shard is no longer in pristine
// rank order (Shape().layout_runs counts the streams a full scan now
// needs). A relocation that does not fit the block's capacity grows it to
// size + need + size/8, never by doubling, so the footprint tracks what
// the churn actually uses; each such growth copies the block once and is
// counted (update_stats().block_growths / block_growth_entries).
// Relocation churn is reclaimed per shard, never globally:
//   * stop-the-shard re-layout — when churn doubles a shard past the
//     footprint the layout policy produced (or its dead slots outgrow a
//     fixed multiple of the shard's live entries — small grids must not
//     bloat either; layout-policy slack never counts as waste), that one
//     shard is re-laid-out in rank order. The worst-case mutation stall is
//     O(n/shards), not O(n).
//   * incremental compaction (`compact_regions_per_batch` > 0) — a shard
//     whose footprint drifts past its layout budget starts copying regions
//     — a bounded number per ApplyUpdates batch, in rank order — into a
//     fresh packed block; regions with rank below the shard's compaction
//     cursor are read from the fresh block, and completion is an O(1)
//     block swap. Steady-state churn then never triggers a re-layout
//     stall at all.
// There is no dual-layout Compact()/Decompact() machinery and no
// full-index copy on the mutation path.
//
// Shards are also the intended NUMA/parallel seam: a shard's block,
// regions and relocation arena are touched only through its rank range,
// so shards can be placed on (and maintained by) separate nodes.
//
// Element lookup is a dense vector `slots_` indexed by ElementId (ids are
// dense in this codebase's datasets): id -> {cell, position in the cell's
// shard block}. Erase/Update are O(1) with zero hashing.

#ifndef SIMSPATIAL_CORE_MEMGRID_H_
#define SIMSPATIAL_CORE_MEMGRID_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/element.h"
#include "common/threads.h"
#include "core/cell_layout.h"

namespace simspatial::core {

struct MemGridConfig {
  /// Cell size; <= 0 chooses ~4 expected elements per occupied cell and at
  /// least the dataset's maximum element extent (single-cell assignment
  /// needs cells no smaller than the elements).
  float cell_size = 0.0f;
  /// Floor on the gap slots every occupied cell gets at a (re)layout
  /// (Build, shard re-layout, compaction pass):
  /// cap = count + max(min_slack, ceil(count * slack_fraction)).
  std::uint32_t min_slack = 0;
  /// Layout slack proportional to a cell's population. With the default
  /// 0.125 nearly every migration of a §4.1 plasticity step lands in a gap
  /// slot (1M neurons: no re-layout in 84 steps) for ~12% more entry slots
  /// than a gap-free block; 1/16 left ~7x the dead slots under the same
  /// walk. 0 lays out a gap-free block (one stream per shard, the fastest
  /// full scan of a grid that is never mutated); mutation headroom then
  /// comes from region relocation alone.
  float slack_fraction = 0.125f;
  /// Worker threads for the whole-structure kernels — Build (per-thread
  /// counting scatter), SelfJoin (rank-range partitioned sweep) and
  /// ApplyUpdates (parallel plan pass). The default
  /// (par::kThreadsAuto) resolves to std::thread::hardware_concurrency();
  /// 0 preserves the serial paths verbatim (1 is equivalent: a one-chunk
  /// partition IS the serial loop). Every parallel path is deterministic:
  /// results are element-for-element identical across thread counts.
  std::uint32_t threads = par::kThreadsAuto;
  /// Order of cell regions in the slack-CSR blocks (see the header
  /// comment): kRowMajor streams z-columns, kMorton/kHilbert stream
  /// curve-rank runs (large range probes enumerate them with the BIGMIN
  /// walk, CurveRangeRankRuns). Purely a storage-order knob —
  /// query/join/update RESULTS are identical across layouts (ordering
  /// aside), verified by the determinism battery.
  CellLayout layout = CellLayout::kRowMajor;
  /// Entry-block shards: the rank space is split into this many contiguous
  /// ranges (entry-balanced at Build, clamped to the cell count), each
  /// with its own block, footprint accounting and relocation arena,
  /// re-laid-out independently — the worst-case mutation stall drops from
  /// O(n) to O(n/shards). Default 1 reproduces the single-block layout
  /// verbatim. Purely a storage knob: query/join/update RESULTS are
  /// identical at every shard count.
  std::uint32_t shards = 1;
  /// Incremental compaction: upper bound on occupied cell regions copied
  /// PER SHARD per ApplyUpdates batch into a drifted shard's fresh block
  /// (0 disables; compaction then happens only through the per-shard
  /// re-layout triggers). With a budget, steady-state churn is reclaimed a
  /// few regions at a time and never pays a re-layout stall.
  std::uint32_t compact_regions_per_batch = 0;
};

struct MemGridShape {
  std::size_t elements = 0;
  std::size_t cells = 0;
  /// Lattice dimensions (cells per axis) — the authoritative values for
  /// callers reasoning about the cell lattice (e.g. feeding
  /// CurveRangeRankRuns); re-deriving them from cell_size risks an
  /// off-by-one at float boundaries.
  std::size_t nx = 1;
  std::size_t ny = 1;
  std::size_t nz = 1;
  /// Bits per axis of the curve codec, sized to the lattice (the `bits`
  /// the rank maps and CurveRangeRankRuns use). 0 under kRowMajor.
  int curve_bits = 0;
  std::size_t occupied_cells = 0;
  double mean_occupancy = 0;
  float cell_size = 0;
  float max_half_extent = 0;
  std::size_t bytes = 0;
  /// Reserved-but-unused slots inside live regions.
  std::size_t slack_slots = 0;
  /// Slots abandoned by region relocations since the last full layout.
  std::size_t dead_slots = 0;
  /// Active cell-layout policy.
  CellLayout layout = CellLayout::kRowMajor;
  /// Number of contiguous-rank streams a full-universe range query would
  /// scan: one per shard for a pristine gap-free grid (slack_fraction 0),
  /// one per occupied cell when regions carry layout slack (the default),
  /// and growing with relocation churn in between.
  std::size_t layout_runs = 0;
  /// Entry-block shards (MemGridConfig::shards clamped to the cell count).
  std::size_t shards = 1;
  /// Shards with an incremental compaction pass in flight.
  std::size_t compacting_shards = 0;
  /// Worker-slot exceptions the global thread pool swallowed because
  /// another slot of the same dispatch had already failed (process-wide,
  /// monotonic). Fault-injection runs assert nothing was silently lost:
  /// every suppressed error is at least counted here.
  std::uint64_t pool_suppressed_errors = 0;
};

struct MemGridUpdateStats {
  std::uint64_t updates = 0;
  std::uint64_t in_place = 0;    ///< Centre stayed in its cell.
  std::uint64_t migrations = 0;  ///< Region-to-region moves.
  std::uint64_t relayouts = 0;   ///< Stop-the-shard re-layouts (amortized).
  /// Completed incremental compaction passes (fresh-block swaps).
  std::uint64_t compaction_passes = 0;
  /// Occupied regions copied by incremental compaction steps.
  std::uint64_t compacted_regions = 0;
  /// ApplyUpdates batches aborted before their commit (the exception is
  /// rethrown to the caller, and the elements are as before the batch).
  std::uint64_t rollbacks = 0;
  /// Entry-block reallocations forced by a region relocation or a
  /// compaction copy that did not fit the block's capacity. Each one grows
  /// the block by size/8 beyond the request and copies it once.
  std::uint64_t block_growths = 0;
  /// Entries those reallocations copied in total: the O(n) cost the
  /// slack and the bounded growth keep rare.
  std::uint64_t block_growth_entries = 0;
  /// Incremental compaction passes that aborted mid-copy; the shard then
  /// falls back to a full re-layout (graceful degradation, not an error).
  std::uint64_t compaction_aborts = 0;
  double InPlaceFraction() const {
    return updates == 0
               ? 0.0
               : static_cast<double>(in_place) / static_cast<double>(updates);
  }
};

/// Grid index with centre assignment, rank-sharded slack-CSR storage and
/// O(1) updates.
class MemGrid {
 public:
  explicit MemGrid(const AABB& universe, MemGridConfig config = {});

  // Failure contract (see ROADMAP.md "Failure contract"): Build, Insert,
  // Update and ApplyUpdates give the STRONG guarantee — on throw the grid
  // holds the same live elements with the same boxes and CheckInvariants
  // passes (its layout may differ: a reservation may already have moved
  // regions), except that max_half_extent_ may have widened (conservative:
  // probes only get more complete) for the single-element ops; an aborted
  // ApplyUpdates leaves max_half_extent_ unchanged too. Erase allocates
  // nothing and cannot fail.

  /// O(n) rebuild (counting scatter into the per-shard slack-CSR blocks).
  /// Strong guarantee: builds into fresh state and swaps, so a failure —
  /// allocation or a worker exception rethrown by ThreadPool::Run —
  /// leaves the previous index intact.
  void Build(std::span<const Element> elements);

  void Insert(const Element& element);
  bool Erase(ElementId id);
  bool Update(ElementId id, const AABB& new_box);
  /// Batch update path, in two phases. Reserve: a read-only plan pass
  /// (parallel on the pool) classifies every update, reduces the
  /// max-half-extent bound and counts the incoming migrations of each
  /// destination cell; each destination region then gets room for its
  /// count (relocating it, or re-laying-out its shard with every pending
  /// demand honoured). Commit: in-place box writes, swap-removes and
  /// landings into the reserved slots — plain stores that cannot throw.
  /// Everything that can fail (scratch allocation, a classification
  /// worker, a reservation) runs before the first store to an entry or to
  /// the slot map, so a failure rethrows with every element as it was and
  /// no undo is needed (update_stats().rollbacks counts these batches).
  /// One budget-bounded incremental compaction step (if configured)
  /// follows the commit; a failure there is absorbed and the shard falls
  /// back to a full re-layout (update_stats().compaction_aborts).
  std::size_t ApplyUpdates(std::span<const ElementUpdate> updates);

  void RangeQuery(const AABB& range, std::vector<ElementId>* out,
                  QueryCounters* counters = nullptr) const;
  /// Number of elements a RangeQuery would return, without materialising
  /// the ids — same traversal (and counters) as RangeQuery, zero output
  /// allocation. The monitoring path for density/occupancy probes.
  std::size_t RangeQueryCount(const AABB& range,
                              QueryCounters* counters = nullptr) const;
  /// The k elements nearest to `p` by AABB::SquaredDistanceTo, in
  /// (distance, id) order — exactly ScanKnn's answer. Best-first walk:
  /// cells are visited in increasing order of a lower bound on the
  /// distance to anything they hold — the distance from `p` to the cell
  /// box inflated by max_half_extent_ plus 1e-3*cell, a boundary cell
  /// unbounded on its outer side (CellCoords clamps outlying centres into
  /// it), ties by cell index — and the walk stops once the next bound
  /// exceeds the k-th distance. A bound equal to it is still scanned: an
  /// element tying the k-th distance wins by its smaller id. A probe with
  /// a NaN coordinate has no distance order and gets an empty result; a
  /// +-inf coordinate makes every distance +inf, so the k smallest ids
  /// win. Counters: nodes_visited counts the cells whose entries were
  /// scanned, distance_computations the entries in them.
  void KnnQuery(const Vec3& p, std::size_t k, std::vector<ElementId>* out,
                QueryCounters* counters = nullptr) const;

  /// Batch query engine: answer every probe of the batch, writing slot i of
  /// `out` bit-identically to what the per-probe RangeQuery(probes[i])
  /// emits (same ids, same order) and accumulating the identical counter
  /// totals. Internally each probe gets an anchor rank — the BIGMIN
  /// first-interval begin of its inflated cell box (the rank of
  /// CurveRangeFirstCell: the first rank its traversal will touch) — and
  /// the batch is
  /// LSD-radix-sorted by (anchor, arrival index). Shards are contiguous
  /// rank ranges, so that IS (shard, rank) order: the walk visits shards
  /// in rank order, consecutive probes stream overlapping regions while
  /// the cache lines are still warm, and exact repeat probes (hot spots
  /// in Zipf-style serving traffic) sort adjacent and reuse the previous
  /// answer outright. Contiguous slices of the schedule — rank-range
  /// partitions — are fanned across the thread pool into disjoint
  /// per-probe result slots. Purely a throughput knob: results are
  /// bit-identical to the per-probe loop across layouts x shards x
  /// threads x compaction states (pinned by the batch determinism
  /// battery).
  void RangeQueryBatch(std::span<const AABB> probes,
                       std::vector<std::vector<ElementId>>* out,
                       QueryCounters* counters = nullptr) const;
  /// Batched counting under the same schedule and contract: (*counts)[i]
  /// == RangeQueryCount(probes[i]) with identical counters, zero result
  /// materialisation. Returns the batch total.
  std::size_t RangeQueryCountBatch(std::span<const AABB> probes,
                                   std::vector<std::size_t>* counts,
                                   QueryCounters* counters = nullptr) const;
  /// Batched kNN under the same schedule and bit-identity contract (slot
  /// i == KnnQuery(points[i], k)); the anchor is the centre cell's rank
  /// (a kNN probe has no natural first interval — its walk grows from
  /// the centre cell). A NaN probe's slot is empty, as in KnnQuery.
  void KnnQueryBatch(std::span<const Vec3> points, std::size_t k,
                     std::vector<std::vector<ElementId>>* out,
                     QueryCounters* counters = nullptr) const;

  /// Native self-join (§4.3): same-cell plus forward-neighbour comparisons.
  /// Complete for any cell size: when cell_size < 2*max_half_extent + eps
  /// the neighbourhood reach widens automatically (slower but never drops
  /// pairs — the fast 13-neighbour path needs no widening).
  void SelfJoin(float eps,
                std::vector<std::pair<ElementId, ElementId>>* out,
                QueryCounters* counters = nullptr) const;

  std::size_t size() const { return size_; }
  float cell_size() const { return cell_; }
  const AABB& universe() const { return universe_; }
  const MemGridUpdateStats& update_stats() const { return update_stats_; }
  MemGridShape Shape() const;
  bool CheckInvariants(std::string* error) const;

  /// All live elements (id + current box), in ascending id order — the
  /// logical-content oracle the fault-injection battery diffs against
  /// (layout bytes may differ after a rollback; the element SET must not).
  std::vector<Element> SnapshotElements() const;

 private:
  struct Entry {
    AABB box;
    ElementId id;
  };
  /// One cell's region of its shard's block: [start, start+count) live,
  /// [start+count, start+cap) slack. `start` is an offset into the block
  /// the region currently resides in (the shard's fresh block while an
  /// incremental compaction pass has moved it, its main block otherwise).
  struct Region {
    std::uint32_t start = 0;
    std::uint32_t cap = 0;
    std::uint32_t count = 0;
  };
  /// Dense per-id locator: owning cell + position in the cell's shard
  /// block (same offset space as Region::start).
  struct Slot {
    std::uint32_t cell = kNoCell;
    std::uint32_t pos = 0;
  };
  /// One contiguous layout-rank range [rank_begin, rank_end) with its own
  /// slack-CSR block, footprint accounting and relocation arena. While an
  /// incremental compaction pass is in flight (`compacting`), regions with
  /// rank < cursor have been copied — packed, in rank order — into
  /// `fresh`; completing the pass swaps `fresh` in as the block.
  struct Shard {
    std::vector<Entry> block;
    std::vector<Entry> fresh;
    std::size_t rank_begin = 0;
    std::size_t rank_end = 0;
    std::size_t live = 0;        ///< Live entries across the shard's cells.
    std::size_t dead = 0;        ///< Relocation-abandoned slots in `block`.
    std::size_t fresh_dead = 0;  ///< Ditto already re-created in `fresh`.
    /// `block` slots superseded by the in-flight pass's copies in `fresh`
    /// (discarded for free at the swap). The growth trigger subtracts them
    /// so a half-copied shard is not mistaken for a half-grown one — that
    /// would force-finish every pass and reintroduce the stall.
    std::size_t stale = 0;
    /// Block size the layout policy produced at the last Build /
    /// re-layout / completed pass; growth is measured against it.
    std::size_t layout_budget = 0;
    std::size_t cursor = 0;  ///< Next rank a compaction pass will copy.
    bool compacting = false;
    /// True while `block` is exactly in packed layout-rank order (set by
    /// Build / re-layout / a relocation-free pass, cleared by the first
    /// region relocation); gates the rank-order check in CheckInvariants.
    bool pristine = true;
    bool fresh_pristine = true;  ///< Same, for the in-flight fresh block.
  };
  static constexpr std::uint32_t kNoCell = 0xffffffffu;
  /// Slot marker for ids whose migration is staged inside ApplyUpdates;
  /// `pos` then indexes the staging vector.
  static constexpr std::uint32_t kPendingCell = 0xfffffffeu;

  std::size_t CellOf(const Vec3& p) const;
  void CellCoords(const Vec3& p, std::int32_t* x, std::int32_t* y,
                  std::int32_t* z) const;
  std::size_t CellIndex(std::int32_t x, std::int32_t y, std::int32_t z) const {
    return (static_cast<std::size_t>(x) * ny_ + static_cast<std::size_t>(y)) *
               nz_ +
           static_cast<std::size_t>(z);
  }

  /// Grow `slots_` so `id` is addressable.
  void EnsureSlot(ElementId id);
  void GrowMaxHalfExtent(const AABB& box);
  /// Swap-remove the live slot `pos` from `cell`'s region (the shared
  /// erase/migrate helper); fixes the displaced entry's slot map entry and
  /// the shard's live count.
  void RemoveFromCell(std::uint32_t cell, std::uint32_t pos);
  /// `need` more entries guaranteed for one destination cell — the unit
  /// of ApplyUpdates' reservation and of a re-layout's extra capacity.
  struct Demand {
    std::uint32_t cell;
    std::uint32_t need;
  };
  /// Single-op reservation (Insert / Update): evaluate `cell`'s shard's
  /// reclamation triggers, then GrowRegion. Returns the first free
  /// position; the caller must re-resolve the region's base pointer.
  std::uint32_t ReserveInCell(std::uint32_t cell, std::uint32_t need);
  /// Make room for `need` more entries in `cell`'s region, relocating it to
  /// its block's tail when its slack is short, and return the first free
  /// position. Invalidates no positions outside the relocated region.
  std::uint32_t GrowRegion(std::uint32_t cell, std::uint32_t need);
  /// Append `extra` value-initialised slots to `space`. A block that must
  /// reallocate grows to size + extra + size/8 (never doubling), counted
  /// in update_stats_.block_growths / block_growth_entries.
  void AppendSlots(std::vector<Entry>* space, std::size_t extra);
  /// ApplyUpdates' reservation for one shard: room for every demand of
  /// `demands` (the shard's destinations), with the shard's reclamation
  /// triggers evaluated before and after.
  void ReserveInShard(std::size_t shard, std::span<const Demand> demands);
  /// Evaluate the shard's reclamation triggers (growth past 2x layout
  /// budget, or relocation-abandoned dead slots past a fixed multiple of
  /// live entries, the small-grid churn cap; layout-policy slack never
  /// counts) and re-layout the shard when one fires, honouring `demands`.
  /// An in-flight compaction pass is finished first — reclaiming is then
  /// usually already done and the re-layout skipped. Returns whether the
  /// shard's regions moved.
  bool MaybeReclaimShard(std::size_t shard, std::span<const Demand> demands);
  /// Stop-the-shard O(n/shards) re-layout in rank order with fresh slack;
  /// every cell of `demands` (all in this shard) gets room for its `need`
  /// extra entries on top of its live ones.
  void RelayoutShard(std::size_t shard, std::span<const Demand> demands);
  /// Start an incremental compaction pass on `shard` (reserve the fresh
  /// block, park the cursor at rank_begin).
  void BeginCompactionPass(std::size_t shard);
  /// Copy up to `budget` occupied regions (cursor order) into the shard's
  /// fresh block; swaps the pass to completion at rank_end. Returns the
  /// budget consumed.
  std::uint32_t AdvanceCompaction(std::size_t shard, std::uint32_t budget);
  /// Drive an in-flight pass to completion in one go (bounded by the
  /// shard, not the grid).
  void FinishCompactionPass(std::size_t shard);
  /// One incremental compaction step over all shards (per-shard budget),
  /// called per ApplyUpdates batch.
  void CompactStep();
  /// Split the rank space into config_.shards contiguous ranges holding
  /// ~total/shards entries each (`counts` indexed by CELL; empty counts or
  /// zero total fall back to an even rank split) and reset the shard
  /// descriptors.
  void PartitionShards(const std::vector<std::uint32_t>& counts,
                       std::size_t total);
  /// Walk every shard's rank range in order, computing each region's
  /// shard-relative start and slacked cap from `counts`, then size the
  /// shard's block and reset its accounting. The ONE definition of the
  /// layout math both Build paths share, so the serial and parallel
  /// layouts are bit-identical by construction. `per_rank(cell, start,
  /// cap, count)` writes the Region plus caller-specific bookkeeping.
  template <typename PerRank>
  void LayoutShardRegions(const std::vector<std::uint32_t>& counts,
                          const PerRank& per_rank);
  /// Per-cell capacity formula after a (re)layout.
  std::uint32_t SlackedCap(std::uint32_t count) const;

  /// Shard owning a rank / cell. Boundaries live in shard_begin_rank_
  /// (size shards+1); the single-shard fast path skips the search.
  std::size_t ShardOfRank(std::size_t rank) const;
  std::size_t ShardOfCell(std::size_t cell) const {
    return shards_.size() == 1 ? 0 : ShardOfRank(CellRank(cell));
  }
  /// The block `cell`'s region currently resides in (fresh while a
  /// compaction pass has copied it, the shard's main block otherwise).
  const std::vector<Entry>& SpaceOf(std::size_t cell) const;
  std::vector<Entry>& SpaceOf(std::size_t cell) {
    return const_cast<std::vector<Entry>&>(
        static_cast<const MemGrid*>(this)->SpaceOf(cell));
  }
  /// One-stop mutable resolution for the mutation paths: the base pointer
  /// of the block `cell`'s region resides in plus the owning shard index,
  /// so erase/insert/migrate resolve rank and shard ONCE per operation
  /// instead of once per helper. Invalidated by anything that moves the
  /// region (ReserveInCell, re-layout, compaction step).
  struct CellRef {
    Entry* data;
    std::size_t shard;
  };
  CellRef ResolveCell(std::size_t cell);
  const Entry* CellEntries(std::size_t cell) const {
    return SpaceOf(cell).data() + regions_[cell].start;
  }
  std::uint32_t CellCount(std::size_t cell) const {
    return regions_[cell].count;
  }

  /// Emit matching sorted pairs between two entry runs (a==b for the
  /// intra-cell triangle) — the shared SelfJoin emitter.
  template <typename Matches>
  static void EmitMatches(const Entry* a, std::size_t an, const Entry* b,
                          std::size_t bn, bool same_run,
                          const Matches& matches,
                          std::vector<std::pair<ElementId, ElementId>>* out,
                          QueryCounters* c);

  /// The shared RangeQuery/RangeQueryCount traversal: stream the probed
  /// cells' regions as fused contiguous-rank runs and hand every entry
  /// whose box intersects `range` to `sink(const Entry&)`, in rank order.
  /// Two traversals: the coordinate-order scan (small probes, and all
  /// kRowMajor probes — cell order IS rank order there) and, for large
  /// probes on the curve layouts, the BIGMIN curve-range decomposition,
  /// which enumerates the fused rank intervals straight from the curve's
  /// orthant walk via CurveRangeRankRuns.
  template <typename Sink>
  void RangeScan(const AABB& range, const Sink& sink,
                 QueryCounters& c) const;

  /// Schedule anchor of a range probe for the batch engine: the first rank
  /// a rank-order traversal of the probe touches — the rank of the
  /// inflated cell box's first cell in curve order (CurveRangeFirstCell),
  /// or the min-corner cell INDEX under kRowMajor, where that IS the first
  /// rank for free. Uses the
  /// SAME normalisation as RangeScan (probe inflation, lattice clamp), so
  /// the anchor is consistent with the traversal it schedules. Probes whose
  /// inflated box misses the lattice anchor at rank 0.
  std::size_t RangeAnchorRank(const AABB& range) const;

  /// Forward-neighbour sweep over origin cells with layout rank in
  /// [rank_begin, rank_end). Neighbour cells may lie outside the range
  /// (read-only), but every pair is emitted by exactly one origin cell, so
  /// disjoint rank ranges emit disjoint pair sets and range-order
  /// concatenation reproduces the serial output. Rank-range partitioning
  /// also balances elongated universes, where x-slabs were too coarse.
  void SweepRanks(std::size_t rank_begin, std::size_t rank_end, int rx,
                  int ry, int rz, bool fast13, float eps,
                  std::vector<std::pair<ElementId, ElementId>>* out,
                  QueryCounters* c) const;

  /// Serial counting scatter (the pre-parallel Build body, kept verbatim
  /// for threads <= 1) and its chunked parallel counterpart. Both lay
  /// regions out in layout-rank order per shard and are bit-identical to
  /// each other.
  void BuildSerial(std::span<const Element> elements);
  void BuildParallel(std::span<const Element> elements, std::size_t chunks);

  /// Populate the cell<->rank maps for the curve layouts (sort the cell
  /// lattice by curve key once per grid; also fixes curve_bits_). kRowMajor
  /// keeps both maps empty: rank IS the cell index.
  void BuildCurveRanks();
  /// Layout rank of a cell / cell at a layout rank (identity under
  /// kRowMajor).
  std::size_t CellRank(std::size_t cell) const {
    return rank_of_cell_.empty() ? cell : rank_of_cell_[cell];
  }
  std::size_t RankCell(std::size_t rank) const {
    return cell_of_rank_.empty() ? rank : cell_of_rank_[rank];
  }

  AABB universe_;
  float cell_ = 1.0f;
  float inv_cell_ = 1.0f;
  std::size_t nx_ = 1;
  std::size_t ny_ = 1;
  std::size_t nz_ = 1;
  MemGridConfig config_;
  /// config_.threads resolved once (kThreadsAuto -> hardware concurrency).
  std::uint32_t threads_ = 1;

  std::vector<Shard> shards_;    ///< The per-rank-range slack-CSR blocks.
  /// Shard rank boundaries: shard s covers ranks
  /// [shard_begin_rank_[s], shard_begin_rank_[s+1]).
  std::vector<std::uint32_t> shard_begin_rank_;
  std::vector<Region> regions_;  ///< Per-cell region descriptors.
  std::vector<Slot> slots_;      ///< Dense id -> {cell, pos} map.
  /// Curve-layout rank maps (both empty under kRowMajor — identity).
  std::vector<std::uint32_t> rank_of_cell_;
  std::vector<std::uint32_t> cell_of_rank_;
  /// Bits per axis of the curve codec, sized to the lattice (the `bits`
  /// CurveRangeRankRuns and the key sort share). 0 under kRowMajor.
  int curve_bits_ = 0;
  std::size_t size_ = 0;         ///< Live elements.

  /// Largest half-extent ever seen; probe inflation bound.
  float max_half_extent_ = 0.0f;
  MemGridUpdateStats update_stats_;

  /// An update whose destination cell differs from its element's cell
  /// before the batch: its index in the batch and that cell.
  struct Move {
    std::size_t index;
    std::uint32_t cell;
  };
  /// Reused per-chunk move lists of ApplyUpdates' plan pass, kept across
  /// batches so the per-step update path stays allocation-free. Chunk 0's
  /// list ends up holding the whole batch's moves in batch order.
  std::vector<std::vector<Move>> scratch_moves_;
  /// Reused scratch for BuildParallel (per-element cell ids, per-chunk
  /// count/cursor arrays) — a rebuild-every-step policy calls Build per
  /// step, so its scratch is kept across calls too.
  std::vector<std::uint32_t> scratch_cell_of_;
  std::vector<std::vector<std::uint32_t>> scratch_chunk_counts_;
};

}  // namespace simspatial::core

#endif  // SIMSPATIAL_CORE_MEMGRID_H_
