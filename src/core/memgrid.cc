#include "core/memgrid.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "common/failpoint.h"
#include "common/geometry.h"
#include "common/parallel.h"

namespace simspatial::core {

namespace {
constexpr std::size_t kMaxCellsPerAxis = 1024;
/// Shard blocks smaller than this never trigger a growth-based re-layout:
/// a re-layout is O(cells in the shard), which can dwarf a tiny dataset.
/// (Waste on small grids is bounded by the churn cap below instead — the
/// old behaviour let a near-empty grid bloat to this constant.)
constexpr std::size_t kMinEntriesForRelayout = 4096;
/// Churn cap: a shard whose relocation-abandoned DEAD slots exceed this
/// multiple of its live entries (plus a small floor so near-empty grids
/// don't re-layout on every insert) is re-laid-out regardless of absolute
/// size. Only dead slots count — layout-policy slack (min_slack /
/// slack_fraction) is recreated by every re-layout, so counting it would
/// keep the trigger permanently armed for padded configs; and geometric
/// relocation strands at most ~1.5x a region's abandoned total as extra
/// slack, so capping dead bounds the shard's total waste at a constant
/// multiple of live + policy slack anyway.
constexpr std::size_t kChurnWasteMultiple = 4;
constexpr std::size_t kChurnWasteFloor = 256;
/// Incremental compaction starts once a shard's block has grown this many
/// slots past its layout budget (or half the budget, whichever is larger).
/// Half-way to the 2x growth trigger balances pass frequency (each pass
/// re-copies the shard, a steady-state throughput tax under heavy churn)
/// against headroom for the pass to complete before that trigger would
/// stall the batch.
constexpr std::size_t kCompactHeadroomFloor = 1024;
/// Minimum items per worker chunk for the parallel Build / ApplyUpdates
/// passes; below this the pool dispatch costs more than it saves.
constexpr std::size_t kParallelGrain = 1024;
/// Cap on the combined footprint of the per-thread count arrays
/// (slots, i.e. 4 bytes each): threads are shed before the counting pass
/// would allocate more than ~64 MB across workers.
constexpr std::size_t kMaxCountSlots = std::size_t{1} << 24;
/// Probe boxes below this many cells take the zero-bookkeeping
/// coordinate-order scan; only larger probes on the curve layouts pay for
/// the BIGMIN run decomposition (the run count a big probe produces is
/// what the walk amortises).
constexpr std::size_t kCurveRunsMinCells = 64;
/// Probes per worker chunk in the batch query engine (RangeQueryBatch /
/// RangeQueryCountBatch / KnnQueryBatch). A probe is a whole query —
/// microseconds of work — so chunks far below the element-kernel grain
/// still amortise the pool dispatch. Batch results do not depend on it.
constexpr std::size_t kBatchProbeGrain = 8;
/// The 13 lexicographically-forward neighbour offsets of the §4.3 sweep.
constexpr int kForward[13][3] = {
    {1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},   {1, -1, 0},
    {1, 0, 1},  {1, 0, -1}, {0, 1, 1},  {0, 1, -1},  {1, 1, 1},
    {1, 1, -1}, {1, -1, 1}, {1, -1, -1}};
/// The single definition of the self-join predicate (eps == 0 ->
/// intersection, eps > 0 -> box distance), shared by the widened-reach
/// fallback and the slab sweep.
struct PairPredicate {
  float eps;
  float eps2;
  bool operator()(const AABB& a, const AABB& b) const {
    return eps > 0.0f ? a.SquaredDistanceTo(b) <= eps2 : a.Intersects(b);
  }
};

/// Lattice coordinates as the curve walks take them (callers pass
/// in-lattice, hence non-negative, values).
template <typename T>
CellVec CellVecOf(T x, T y, T z) {
  return CellVec{static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y),
                 static_cast<std::uint32_t>(z)};
}

/// Per-thread run list for RangeScan, hoisted out of the template: its
/// two Sink instantiations (RangeQuery, RangeQueryCount) would otherwise
/// each get their own thread_local copy. RangeQuery is const and may serve
/// concurrent readers, so per-instance scratch is off limits; per-thread
/// reuse keeps the steady state allocation-free.
std::vector<CurveRun>& RangeScanRuns() {
  static thread_local std::vector<CurveRun> runs;
  return runs;
}

/// Per-thread heaps of the best-first kNN walk, kept per thread for the
/// same reason as RangeScanRuns: `cells` holds pending (bound, cell) keys,
/// `best` the k best (distance, id) keys so far.
struct KnnScratch {
  std::vector<std::uint64_t> cells;
  std::vector<std::uint64_t> best;
};
KnnScratch& KnnScratchBuffers() {
  static thread_local KnnScratch scratch;
  return scratch;
}

/// (v, index) packed into one integer key. The bit pattern of a
/// non-negative float (+inf included) is monotone in its value, so
/// comparing keys compares (v, index) lexicographically — the (distance,
/// id) order of ScanKnn, in one integer compare.
std::uint64_t PackKey(float v, std::uint32_t index) {
  return (static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(v)) << 32) |
         index;
}

/// LSD radix sort of `*a` by the 8-bit digits of (v >> base_shift), running
/// exactly as many passes as `bound` — the maximum possible value of
/// v >> base_shift — occupies. Comparison-sorting curve keys costs more in
/// branch misses than the counting passes; BuildCurveRanks and the batch
/// schedule share this. The sorted data ends in `*a`; `*scratch` is
/// resized to match.
template <typename T>
void RadixSortDigits(std::vector<T>* a, std::vector<T>* scratch,
                     int base_shift, std::uint64_t bound) {
  scratch->resize(a->size());
  for (int shift = base_shift; bound != 0; shift += 8, bound >>= 8) {
    std::size_t count[256] = {};
    for (const T v : *a) ++count[(v >> shift) & 0xffu];
    std::size_t cursor = 0;
    for (std::size_t& slot : count) {
      const std::size_t k = slot;
      slot = cursor;
      cursor += k;
    }
    for (const T v : *a) (*scratch)[count[(v >> shift) & 0xffu]++] = v;
    a->swap(*scratch);
  }
}
}  // namespace

MemGrid::MemGrid(const AABB& universe, MemGridConfig config)
    : universe_(universe), config_(config),
      threads_(par::ResolveThreads(config.threads)) {
  const Vec3 ext = universe.Extent();
  const float side = std::max({ext.x, ext.y, ext.z, 1e-6f});
  cell_ = config.cell_size > 0.0f ? config.cell_size : side / 64.0f;
  cell_ = std::max(cell_, 1e-6f);
  inv_cell_ = 1.0f / cell_;
  const auto axis = [&](float e) {
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(e * inv_cell_)), 1,
        kMaxCellsPerAxis);
  };
  nx_ = axis(ext.x);
  ny_ = axis(ext.y);
  nz_ = axis(ext.z);
  regions_.resize(nx_ * ny_ * nz_);
  BuildCurveRanks();
  PartitionShards({}, 0);
}

void MemGrid::BuildCurveRanks() {
  if (config_.layout == CellLayout::kRowMajor) return;
  // Rank the cell lattice by curve key once per grid. The codecs are sized
  // to the lattice: kMaxCellsPerAxis = 1024 = 2^10 means every key fits in
  // 3*10 = 30 bits, so a (key << 32 | cell) packing sorts by key with cell
  // as payload, and a few 8-bit LSD radix passes over the key bytes replace
  // a comparison sort (~5x cheaper on the ~10^6-cell grids fine-celled
  // joins build). Keys are injective over distinct coordinates (both
  // codecs are lattice bijections), so the rank order is unique and
  // deterministic.
  int bits = 1;
  while ((std::size_t{1} << bits) < std::max({nx_, ny_, nz_})) ++bits;
  curve_bits_ = bits;
  const std::size_t cells = regions_.size();
  std::vector<std::uint64_t> packed(cells);
  for (std::size_t x = 0; x < nx_; ++x) {
    for (std::size_t y = 0; y < ny_; ++y) {
      for (std::size_t z = 0; z < nz_; ++z) {
        const std::size_t cell = CellIndex(static_cast<std::int32_t>(x),
                                           static_cast<std::int32_t>(y),
                                           static_cast<std::int32_t>(z));
        const auto qx = static_cast<std::uint32_t>(x);
        const auto qy = static_cast<std::uint32_t>(y);
        const auto qz = static_cast<std::uint32_t>(z);
        const std::uint64_t key = config_.layout == CellLayout::kMorton
                                      ? MortonEncodeCell(qx, qy, qz)
                                      : HilbertEncodeCell(qx, qy, qz, bits);
        packed[cell] = key << 32 | cell;
      }
    }
  }
  std::vector<std::uint64_t> scratch;
  RadixSortDigits(&packed, &scratch, /*base_shift=*/32,
                  /*bound=*/(std::uint64_t{1} << (3 * bits)) - 1);
  cell_of_rank_.resize(cells);
  rank_of_cell_.resize(cells);
  for (std::size_t r = 0; r < cells; ++r) {
    const auto cell = static_cast<std::uint32_t>(packed[r] & 0xffffffffu);
    cell_of_rank_[r] = cell;
    rank_of_cell_[cell] = static_cast<std::uint32_t>(r);
  }
}

void MemGrid::PartitionShards(const std::vector<std::uint32_t>& counts,
                              std::size_t total) {
  const std::size_t cells = regions_.size();
  const std::size_t want = std::max<std::uint32_t>(config_.shards, 1);
  const std::size_t S = std::min<std::size_t>(want, cells);
  shard_begin_rank_.assign(S + 1, 0);
  shard_begin_rank_[S] = static_cast<std::uint32_t>(cells);
  if (total == 0 || counts.empty()) {
    // No occupancy information: even rank split.
    for (std::size_t s = 1; s < S; ++s) {
      shard_begin_rank_[s] = static_cast<std::uint32_t>(cells * s / S);
    }
  } else {
    // Entry-balanced boundaries: close shard s-1 at the first rank whose
    // entry prefix reaches s/S of the total, while guaranteeing every
    // shard at least one rank. A pure function of the per-cell counts and
    // the rank order — identical across thread counts.
    std::size_t r = 0;
    std::size_t acc = 0;
    for (std::size_t s = 1; s < S; ++s) {
      const std::size_t target = total * s / S;
      const std::size_t lo = shard_begin_rank_[s - 1] + std::size_t{1};
      const std::size_t hi = cells - (S - s);
      while (r < lo || (r < hi && acc < target)) {
        acc += counts[RankCell(r)];
        ++r;
      }
      shard_begin_rank_[s] = static_cast<std::uint32_t>(r);
    }
  }
  shards_.assign(S, Shard{});
  for (std::size_t s = 0; s < S; ++s) {
    shards_[s].rank_begin = shard_begin_rank_[s];
    shards_[s].rank_end = shard_begin_rank_[s + 1];
    shards_[s].cursor = shards_[s].rank_begin;
  }
}

template <typename PerRank>
void MemGrid::LayoutShardRegions(const std::vector<std::uint32_t>& counts,
                                 const PerRank& per_rank) {
  for (Shard& sh : shards_) {
    std::size_t total = 0;
    std::size_t live = 0;
    for (std::size_t rank = sh.rank_begin; rank < sh.rank_end; ++rank) {
      const std::size_t cell = RankCell(rank);
      const std::uint32_t count = counts[cell];
      const std::uint32_t cap = SlackedCap(count);
      per_rank(cell, static_cast<std::uint32_t>(total), cap, count);
      total += cap;
      live += count;
    }
    sh.block.assign(total, Entry{});
    sh.layout_budget = total;
    sh.live = live;
  }
}

std::size_t MemGrid::ShardOfRank(std::size_t rank) const {
  if (shards_.size() == 1) return 0;
  const auto it = std::upper_bound(shard_begin_rank_.begin() + 1,
                                   shard_begin_rank_.end(),
                                   static_cast<std::uint32_t>(rank));
  return static_cast<std::size_t>(it - shard_begin_rank_.begin()) - 1;
}

const std::vector<MemGrid::Entry>& MemGrid::SpaceOf(std::size_t cell) const {
  if (shards_.size() == 1 && !shards_[0].compacting) return shards_[0].block;
  const std::size_t rank = CellRank(cell);
  const Shard& sh = shards_[ShardOfRank(rank)];
  return sh.compacting && rank < sh.cursor ? sh.fresh : sh.block;
}

MemGrid::CellRef MemGrid::ResolveCell(std::size_t cell) {
  if (shards_.size() == 1 && !shards_[0].compacting) {
    return CellRef{shards_[0].block.data(), 0};
  }
  const std::size_t rank = CellRank(cell);
  const std::size_t shard = ShardOfRank(rank);
  Shard& sh = shards_[shard];
  return CellRef{
      (sh.compacting && rank < sh.cursor ? sh.fresh : sh.block).data(),
      shard};
}

void MemGrid::CellCoords(const Vec3& p, std::int32_t* x, std::int32_t* y,
                         std::int32_t* z) const {
  const auto clamp_axis = [&](float v, float lo, std::size_t n) {
    return ClampedCellCoord((v - lo) * inv_cell_, 0,
                            static_cast<std::int32_t>(n) - 1);
  };
  *x = clamp_axis(p.x, universe_.min.x, nx_);
  *y = clamp_axis(p.y, universe_.min.y, ny_);
  *z = clamp_axis(p.z, universe_.min.z, nz_);
}

std::size_t MemGrid::CellOf(const Vec3& p) const {
  std::int32_t x, y, z;
  CellCoords(p, &x, &y, &z);
  return CellIndex(x, y, z);
}

std::uint32_t MemGrid::SlackedCap(std::uint32_t count) const {
  if (count == 0) return 0;
  const auto proportional = static_cast<std::uint32_t>(
      std::ceil(static_cast<double>(count) * config_.slack_fraction));
  return count + std::max(config_.min_slack, proportional);
}

void MemGrid::EnsureSlot(ElementId id) {
  if (id >= slots_.size()) slots_.resize(static_cast<std::size_t>(id) + 1);
}

void MemGrid::GrowMaxHalfExtent(const AABB& box) {
  const Vec3 ext = box.Extent();
  max_half_extent_ = std::max(
      {max_half_extent_, ext.x * 0.5f, ext.y * 0.5f, ext.z * 0.5f});
}

void MemGrid::Build(std::span<const Element> elements) {
  // Strong guarantee: stash the current index by O(1) moves and construct
  // into fresh state; ANY failure below — an allocation, a failpoint, a
  // worker exception rethrown by ThreadPool::Run — restores the stash, so
  // a failed rebuild leaves the previous index intact. (The scratch
  // members are not stashed: they carry no index state.)
  auto stash_shards = std::move(shards_);
  auto stash_begin_rank = std::move(shard_begin_rank_);
  auto stash_regions = std::move(regions_);
  auto stash_slots = std::move(slots_);
  const std::size_t stash_size = size_;
  const float stash_mhe = max_half_extent_;
  const MemGridUpdateStats stash_stats = update_stats_;
  try {
    regions_.assign(stash_regions.size(), Region{});
    slots_.clear();
    update_stats_ = MemGridUpdateStats{};
    max_half_extent_ = 0.0f;
    size_ = elements.size();
    SIMSPATIAL_FAILPOINT("memgrid.build.alloc");

    // Chunk count: bounded by the thread knob, the per-chunk grain, and
    // the footprint of the per-thread count arrays (chunks * cells slots).
    std::size_t chunks =
        par::ChunkCount(threads_, elements.size(), kParallelGrain);
    while (chunks > 1 && chunks * regions_.size() > kMaxCountSlots) --chunks;
    if (chunks > 1) {
      BuildParallel(elements, chunks);
    } else {
      BuildSerial(elements);
    }
  } catch (...) {
    shards_ = std::move(stash_shards);
    shard_begin_rank_ = std::move(stash_begin_rank);
    regions_ = std::move(stash_regions);
    slots_ = std::move(stash_slots);
    size_ = stash_size;
    max_half_extent_ = stash_mhe;
    update_stats_ = stash_stats;
    throw;
  }
}

void MemGrid::BuildSerial(std::span<const Element> elements) {
  // Pass 1: per-cell occupancy and the id range; pass 2: entry-balanced
  // shard boundaries, then per shard the region layout in layout-rank
  // order with slack; pass 3: scatter. This is the O(n) "cheap rebuild" —
  // no per-bucket allocations, one flat block per shard.
  std::vector<std::uint32_t> counts(regions_.size(), 0);
  ElementId max_id = 0;
  for (const Element& e : elements) {
    ++counts[CellOf(e.Center())];
    max_id = std::max(max_id, e.id);
    GrowMaxHalfExtent(e.box);
  }
  PartitionShards(counts, elements.size());
  LayoutShardRegions(counts, [&](std::size_t cell, std::uint32_t start,
                                 std::uint32_t cap, std::uint32_t) {
    regions_[cell] = Region{start, cap, 0};
  });
  slots_.assign(elements.empty() ? 0 : static_cast<std::size_t>(max_id) + 1,
                Slot{});
  for (const Element& e : elements) {
    const auto cell = static_cast<std::uint32_t>(CellOf(e.Center()));
    Region& r = regions_[cell];
    const std::uint32_t pos = r.start + r.count++;
    shards_[ShardOfCell(cell)].block[pos] = Entry{e.box, e.id};
    assert(slots_[e.id].cell == kNoCell && "duplicate element id in Build");
    slots_[e.id] = Slot{cell, pos};
  }
}

void MemGrid::BuildParallel(std::span<const Element> elements,
                            std::size_t chunks) {
  // Same three passes as BuildSerial, chunk-partitioned. Entries land at
  // the exact positions the serial scatter would choose: within a cell,
  // chunk c's elements precede chunk c+1's and keep their input order, so
  // the concatenation over chunks IS the input order — the layout (and
  // therefore every downstream query result) is bit-identical to serial.
  const std::size_t n = elements.size();
#ifndef NDEBUG
  {
    // Debug-parity with BuildSerial's duplicate-id assert: a duplicate id
    // would make two scatter chunks race on the same slots_ entry, so
    // diagnose it deterministically before fanning out.
    std::vector<std::uint8_t> seen;
    for (const Element& e : elements) {
      if (e.id >= seen.size()) seen.resize(static_cast<std::size_t>(e.id) + 1);
      assert(!seen[e.id] && "duplicate element id in Build");
      seen[e.id] = 1;
    }
  }
#endif
  // Pass 1 (parallel): per-chunk cell ids, per-(chunk, cell) occupancy,
  // id-range and half-extent reductions. Scratch lives in members so a
  // rebuild-every-step loop allocates only on its first step.
  scratch_cell_of_.resize(n);
  std::vector<std::uint32_t>& cell_of = scratch_cell_of_;
  if (scratch_chunk_counts_.size() < chunks) {
    scratch_chunk_counts_.resize(chunks);
  }
  std::vector<std::vector<std::uint32_t>>& counts = scratch_chunk_counts_;
  std::vector<ElementId> chunk_max_id(chunks, 0);
  std::vector<float> chunk_mhe(chunks, 0.0f);
  par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                     std::size_t end) {
    // A worker-slot failure here surfaces through ThreadPool::Run and is
    // absorbed by Build's stash/restore.
    SIMSPATIAL_FAILPOINT("memgrid.build.worker");
    std::vector<std::uint32_t>& c = counts[w];
    c.assign(regions_.size(), 0);
    ElementId max_id = 0;
    float mhe = 0.0f;
    for (std::size_t i = begin; i < end; ++i) {
      const Element& e = elements[i];
      const auto cell = static_cast<std::uint32_t>(CellOf(e.Center()));
      cell_of[i] = cell;
      ++c[cell];
      max_id = std::max(max_id, e.id);
      const Vec3 ext = e.box.Extent();
      mhe = std::max({mhe, ext.x * 0.5f, ext.y * 0.5f, ext.z * 0.5f});
    }
    chunk_max_id[w] = max_id;
    chunk_mhe[w] = mhe;
  });
  ElementId max_id = 0;
  for (std::size_t w = 0; w < chunks; ++w) {
    max_id = std::max(max_id, chunk_max_id[w]);
    max_half_extent_ = std::max(max_half_extent_, chunk_mhe[w]);
  }

  // Pass 2 (serial): combined per-cell counts feed the entry-balanced
  // shard boundaries, then the region layout walks each shard's rank
  // range — the identical iteration BuildSerial performs, so the layout is
  // bit-identical to the serial build; the per-(chunk, cell) counts become
  // shard-block write cursors for the scatter.
  std::vector<std::uint32_t> combined(regions_.size(), 0);
  for (std::size_t w = 0; w < chunks; ++w) {
    const std::vector<std::uint32_t>& c = counts[w];
    for (std::size_t i = 0; i < combined.size(); ++i) combined[i] += c[i];
  }
  PartitionShards(combined, n);
  LayoutShardRegions(combined, [&](std::size_t cell, std::uint32_t start,
                                   std::uint32_t cap, std::uint32_t count) {
    regions_[cell] = Region{start, cap, count};
    std::uint32_t cursor = start;
    for (std::size_t w = 0; w < chunks; ++w) {
      const std::uint32_t k = counts[w][cell];
      counts[w][cell] = cursor;
      cursor += k;
    }
  });
  slots_.assign(n == 0 ? 0 : static_cast<std::size_t>(max_id) + 1, Slot{});

  // Pass 3 (parallel scatter): chunk cursors are disjoint by construction,
  // and ids are unique, so every block/slots_ store has one writer.
  par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                     std::size_t end) {
    std::vector<std::uint32_t>& cursor = counts[w];
    for (std::size_t i = begin; i < end; ++i) {
      const Element& e = elements[i];
      const std::uint32_t cell = cell_of[i];
      const std::uint32_t pos = cursor[cell]++;
      shards_[ShardOfCell(cell)].block[pos] = Entry{e.box, e.id};
      slots_[e.id] = Slot{cell, pos};
    }
  });
}

void MemGrid::RemoveFromCell(std::uint32_t cell, std::uint32_t pos) {
  Region& r = regions_[cell];
  assert(r.count > 0);
  const CellRef ref = ResolveCell(cell);
  const std::uint32_t last = r.start + r.count - 1;
  if (pos != last) {
    ref.data[pos] = ref.data[last];
    slots_[ref.data[pos].id].pos = pos;
  }
  --r.count;
  --shards_[ref.shard].live;
}

void MemGrid::RelayoutShard(std::size_t shard, std::uint32_t demand_cell,
                            std::uint32_t demand) {
  Shard& sh = shards_[shard];
  SIMSPATIAL_FAILPOINT("memgrid.relayout.alloc");
  const std::size_t ranks = sh.rank_end - sh.rank_begin;
  // First sweep (rank order): new start/cap per cell (old starts still
  // needed, so stash the new offsets separately). Both sweeps allocate
  // before the first in-place mutation, so a failure leaves the shard
  // exactly as it was (strong guarantee).
  std::vector<std::uint32_t> new_start(ranks);
  std::size_t total = 0;
  for (std::size_t i = 0; i < ranks; ++i) {
    const std::size_t c = RankCell(sh.rank_begin + i);
    const std::uint32_t want =
        regions_[c].count + (c == demand_cell ? demand : 0);
    new_start[i] = static_cast<std::uint32_t>(total);
    total += SlackedCap(want);
  }
  std::vector<Entry> fresh(total, Entry{});
  // Second sweep in rank order too: destination writes stream the fresh
  // block sequentially. Each region is read from whichever block it
  // currently resides in — an in-flight compaction pass holds ranks below
  // the cursor in sh.fresh — so re-layout needs no FinishCompactionPass
  // first and doubles as the pass's ABORT path (CompactStep falls back
  // here when an incremental copy fails mid-pass).
  for (std::size_t i = 0; i < ranks; ++i) {
    const std::size_t rank = sh.rank_begin + i;
    const std::size_t c = RankCell(rank);
    Region& r = regions_[c];
    const std::uint32_t want = r.count + (c == demand_cell ? demand : 0);
    const bool in_fresh = sh.compacting && rank < sh.cursor;
    const Entry* src = (in_fresh ? sh.fresh : sh.block).data() + r.start;
    Entry* dst = fresh.data() + new_start[i];
    for (std::uint32_t k = 0; k < r.count; ++k) {
      dst[k] = src[k];
      slots_[dst[k].id].pos = new_start[i] + k;
    }
    r.start = new_start[i];
    r.cap = SlackedCap(want);
  }
  sh.block = std::move(fresh);
  sh.fresh.clear();
  sh.fresh.shrink_to_fit();
  sh.compacting = false;
  sh.cursor = sh.rank_begin;
  sh.stale = 0;
  sh.dead = 0;
  sh.fresh_dead = 0;
  sh.fresh_pristine = true;
  sh.layout_budget = sh.block.size();
  sh.pristine = true;
  ++update_stats_.relayouts;
}

void MemGrid::MaybeReclaimShard(std::size_t shard, std::uint32_t demand_cell,
                                std::uint32_t demand, bool allow_churn) {
  Shard& sh = shards_[shard];
  const auto triggered = [&sh, allow_churn] {
    // Mid-pass, block slots whose regions were already copied into fresh
    // are discarded for free at the swap — subtract them, or a pass ~1/3
    // done would read as 2x-grown and every pass would be force-finished
    // right back into the O(shard) stall incremental mode removes.
    const std::size_t footprint =
        sh.block.size() + sh.fresh.size() - sh.stale;
    const bool grown = footprint >= kMinEntriesForRelayout &&
                       footprint >= 2 * sh.layout_budget;
    const bool churned = allow_churn &&
                         sh.dead + sh.fresh_dead >
                             kChurnWasteMultiple * sh.live + kChurnWasteFloor;
    return grown || churned;
  };
  if (!triggered()) return;
  if (sh.compacting) {
    FinishCompactionPass(shard);
    // The finished pass reclaimed the churn already in most cases.
    if (!triggered()) return;
  }
  RelayoutShard(shard, demand_cell, demand);
}

std::uint32_t MemGrid::ReserveInCell(std::uint32_t cell, std::uint32_t need,
                                     bool allow_churn) {
  // Reclamation triggers run on every reservation, not only when the
  // region is out of slack: a shard whose waste outgrew the churn cap must
  // compact even if the next insert happens to have room (a small grid
  // that shrank after a burst would otherwise stay bloated forever).
  const std::size_t shard = ShardOfCell(cell);
  MaybeReclaimShard(shard, cell, need, allow_churn);
  Region& r = regions_[cell];
  if (r.count + need <= r.cap) return r.start + r.count;
  // Out of slack: relocate just this region to fresh geometric (~1.5x)
  // capacity at the tail of the block it currently lives in — a hot cell
  // absorbing a stream of inserts relocates O(log n) times total. The
  // abandoned slots are dead space until the shard compacts.
  Shard& sh = shards_[shard];
  const std::size_t rank = CellRank(cell);
  const bool in_fresh = sh.compacting && rank < sh.cursor;
  std::vector<Entry>& space = in_fresh ? sh.fresh : sh.block;
  const std::uint32_t want = r.count + need;
  const std::uint32_t new_cap = std::max(SlackedCap(want),
                                         want + want / 2 + 2);
  const auto new_start = static_cast<std::uint32_t>(space.size());
  space.resize(space.size() + new_cap);
  const Entry* src = space.data() + r.start;
  Entry* dst = space.data() + new_start;
  for (std::uint32_t i = 0; i < r.count; ++i) {
    dst[i] = src[i];
    slots_[dst[i].id].pos = new_start + i;
  }
  // The relocated region now sits at its block's tail, out of rank order.
  if (in_fresh) {
    sh.fresh_dead += r.cap;
    sh.fresh_pristine = false;
  } else {
    sh.dead += r.cap;
    sh.pristine = false;
  }
  r.start = new_start;
  r.cap = new_cap;
  return r.start + r.count;
}

void MemGrid::BeginCompactionPass(std::size_t shard) {
  Shard& sh = shards_[shard];
  assert(!sh.compacting);
  SIMSPATIAL_FAILPOINT("memgrid.compact.begin");
  // Reserve generously so the pass appends without reallocating (a
  // realloc's copy would be a stall of its own). Padded profiles add
  // per-cell slack on top of live entries; churn during the pass can grow
  // the target further — an overflow just falls back to vector growth.
  // The reservation happens into a local BEFORE any pass state flips: the
  // allocation is the only throwing step here, so a failure leaves the
  // shard idle and untouched.
  const std::size_t ranks = sh.rank_end - sh.rank_begin;
  std::vector<Entry> fresh;
  fresh.reserve(
      sh.live + sh.live / 2 +
      static_cast<std::size_t>(static_cast<double>(sh.live) *
                               config_.slack_fraction) +
      static_cast<std::size_t>(config_.min_slack) * std::min(sh.live, ranks) +
      kChurnWasteFloor);
  sh.fresh = std::move(fresh);
  sh.compacting = true;
  sh.cursor = sh.rank_begin;
  sh.stale = 0;
  sh.fresh_dead = 0;
  sh.fresh_pristine = true;
  sh.pristine = false;  // The block no longer covers the whole shard.
}

std::uint32_t MemGrid::AdvanceCompaction(std::size_t shard,
                                         std::uint32_t budget) {
  Shard& sh = shards_[shard];
  assert(sh.compacting);
  std::uint32_t used = 0;
  // Never-occupied ranks are processed for free (one descriptor write),
  // but a hard visit cap bounds the walk through huge empty stretches.
  std::size_t visits_left =
      std::max<std::size_t>(std::size_t{64} * budget, std::size_t{1024});
  while (sh.cursor < sh.rank_end && used < budget && visits_left > 0) {
    --visits_left;
    const std::size_t c = RankCell(sh.cursor);
    Region& r = regions_[c];
    const std::uint32_t cap = SlackedCap(r.count);
    const auto new_start = static_cast<std::uint32_t>(sh.fresh.size());
    // Only occupied regions copy entries and consume budget; emptied ones
    // (count == 0, stale cap) reclaim their cap for free, and the visit
    // cap above bounds the walk either way.
    if (r.count != 0) {
      // A throw here (the resize, or the failpoint modelling it) leaves a
      // VALID mid-pass state: this region's descriptor and the cursor are
      // untouched, so reads keep resolving every region correctly.
      SIMSPATIAL_FAILPOINT("memgrid.compact.advance");
      sh.fresh.resize(sh.fresh.size() + cap);
      const Entry* src = sh.block.data() + r.start;
      Entry* dst = sh.fresh.data() + new_start;
      for (std::uint32_t k = 0; k < r.count; ++k) {
        dst[k] = src[k];
        slots_[dst[k].id].pos = new_start + k;
      }
      ++used;
      ++update_stats_.compacted_regions;
    }
    // The region's block slots are superseded from here on — free at swap.
    sh.stale += r.cap;
    r.start = new_start;
    r.cap = cap;
    ++sh.cursor;
  }
  if (sh.cursor == sh.rank_end) {
    // Pass complete: O(1) retirement of the old block.
    sh.block.swap(sh.fresh);
    sh.fresh.clear();
    sh.fresh.shrink_to_fit();
    sh.stale = 0;
    sh.dead = sh.fresh_dead;
    sh.fresh_dead = 0;
    sh.layout_budget = sh.block.size();
    sh.pristine = sh.fresh_pristine;
    sh.fresh_pristine = true;
    sh.compacting = false;
    sh.cursor = sh.rank_begin;
    ++update_stats_.compaction_passes;
  }
  return used;
}

void MemGrid::FinishCompactionPass(std::size_t shard) {
  while (shards_[shard].compacting) {
    AdvanceCompaction(shard, std::numeric_limits<std::uint32_t>::max());
  }
}

void MemGrid::CompactStep() {
  const std::uint32_t budget = config_.compact_regions_per_batch;
  if (budget == 0) return;
  // The budget is PER SHARD: every drifted shard advances every batch, so
  // no shard can starve behind the others' passes and hit its growth
  // trigger while incremental mode is on. The per-batch compaction work is
  // bounded by budget * shards regions either way.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& sh = shards_[si];
    try {
      if (!sh.compacting) {
        const std::size_t headroom =
            sh.layout_budget + std::max<std::size_t>(sh.layout_budget / 2,
                                                     kCompactHeadroomFloor);
        if (sh.block.size() < headroom) continue;
        BeginCompactionPass(si);
      }
      AdvanceCompaction(si, budget);
    } catch (...) {
      // Graceful degradation: the batch itself has already committed, so
      // a failed compaction step is absorbed, never rethrown. A pass that
      // aborted MID-COPY cannot be discarded (descriptors already point
      // into the fresh block), so the shard falls back to the full
      // re-layout, which reclaims the same churn in one strong-guarantee
      // step; a failure to even BEGIN a pass left the shard untouched and
      // needs no repair.
      ++update_stats_.compaction_aborts;
      if (sh.compacting) {
        try {
          RelayoutShard(si, kNoCell, 0);
        } catch (...) {
          // Even the fallback failed (sustained allocation failure). The
          // mid-pass state is still valid, so park the pass; the next
          // batch retries.
        }
      }
    }
  }
}

void MemGrid::Insert(const Element& element) {
  EnsureSlot(element.id);
  assert(slots_[element.id].cell == kNoCell && "id already present");
  const auto cell = static_cast<std::uint32_t>(CellOf(element.Center()));
  const std::uint32_t pos = ReserveInCell(cell, 1);
  const CellRef ref = ResolveCell(cell);
  ref.data[pos] = Entry{element.box, element.id};
  ++regions_[cell].count;
  ++shards_[ref.shard].live;
  slots_[element.id] = Slot{cell, pos};
  ++size_;
  GrowMaxHalfExtent(element.box);
}

bool MemGrid::Erase(ElementId id) {
  if (id >= slots_.size() || slots_[id].cell >= kPendingCell) return false;
  const Slot s = slots_[id];
  RemoveFromCell(s.cell, s.pos);
  slots_[id] = Slot{};
  --size_;
  return true;
}

bool MemGrid::Update(ElementId id, const AABB& new_box) {
  if (id >= slots_.size() || slots_[id].cell >= kPendingCell) return false;
  const Slot s = slots_[id];
  ++update_stats_.updates;
  GrowMaxHalfExtent(new_box);
  const auto new_cell = static_cast<std::uint32_t>(CellOf(new_box.Center()));
  if (new_cell == s.cell) {
    // §4.3 fast path: one box store, no structural change, no scan.
    SpaceOf(s.cell)[s.pos].box = new_box;
    ++update_stats_.in_place;
    return true;
  }
  // Reserve BEFORE removing: the reservation is the only throwing step of
  // a migration, so ordering it first gives the strong guarantee — a
  // failure leaves the element in its old cell with its old box. The
  // reservation may re-layout the shard holding the old cell, so the
  // slot is re-read afterwards; everything past it is plain stores.
  const std::uint32_t pos = ReserveInCell(new_cell, 1);
  const Slot cur = slots_[id];
  RemoveFromCell(cur.cell, cur.pos);
  const CellRef ref = ResolveCell(new_cell);
  ref.data[pos] = Entry{new_box, id};
  ++regions_[new_cell].count;
  ++shards_[ref.shard].live;
  slots_[id] = Slot{new_cell, pos};
  ++update_stats_.migrations;
  return true;
}

std::size_t MemGrid::ApplyUpdates(std::span<const ElementUpdate> updates) {
  struct Migration {
    ElementId id;
    AABB box;
    std::uint32_t cell;
  };
  // Transactional batch: every logical mutation below is journaled, and a
  // failure ANYWHERE — classification worker, staging, landing-phase
  // reservation — rolls the journal back and rethrows, leaving the grid
  // in its pre-batch state. The pre-batch counters are an O(1) snapshot;
  // all scratch is reserved up front so the mutation loops themselves
  // never allocate through push_back.
  const MemGridUpdateStats pre_stats = update_stats_;
  const float pre_mhe = max_half_extent_;
  std::vector<Migration> staged;
  std::size_t applied = 0;
  try {
    // Scratch allocation is part of the transaction: a bad_alloc here
    // takes the (trivial) rollback path so update_stats_.rollbacks counts
    // it like any other aborted batch.
    SIMSPATIAL_FAILPOINT("memgrid.apply.alloc");
    journal_.clear();
    journal_.reserve(updates.size());
    staged.reserve(updates.size());
    // Classification (destination cell + half-extent of every update)
    // reads only the boxes, so it fans out across the pool; the
    // structural phase below stays serial and is order-identical to the
    // all-serial path — the parallel path is therefore deterministic by
    // construction.
    const std::size_t chunks =
        par::ChunkCount(threads_, updates.size(), kParallelGrain);
    if (chunks > 1) {
      // Member scratch, not locals: a simulation calls this every step
      // with a same-sized batch, so after the first step this path
      // allocates nothing.
      scratch_cells_.resize(updates.size());
      scratch_mhe_.resize(updates.size());
      par::ParallelChunks(
          chunks, updates.size(),
          [&](std::size_t, std::size_t begin, std::size_t end) {
            SIMSPATIAL_FAILPOINT("memgrid.apply.classify.worker");
            for (std::size_t i = begin; i < end; ++i) {
              const AABB& box = updates[i].new_box;
              scratch_cells_[i] =
                  static_cast<std::uint32_t>(CellOf(box.Center()));
              const Vec3 ext = box.Extent();
              scratch_mhe_[i] = std::max({ext.x, ext.y, ext.z}) * 0.5f;
            }
          });
    }
    // One serial pass: in-place writes land immediately; migrations are
    // staged so they can be grouped by destination cell. The
    // max-half-extent bound is reduced once over the whole batch instead
    // of per element. In-place stores are the §4.3 hot path, so the
    // single-shard/idle case keeps a hoisted block pointer (nothing below
    // resizes a block until the landing phase).
    Entry* const fast_base = shards_.size() == 1 && !shards_[0].compacting
                                 ? shards_[0].block.data()
                                 : nullptr;
    float batch_mhe = max_half_extent_;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const ElementUpdate& u = updates[i];
      if (u.id >= slots_.size()) continue;
      const Slot s = slots_[u.id];
      if (s.cell == kNoCell) continue;
      if (chunks > 1) {
        batch_mhe = std::max(batch_mhe, scratch_mhe_[i]);
      } else {
        const Vec3 ext = u.new_box.Extent();
        batch_mhe = std::max({batch_mhe, ext.x * 0.5f, ext.y * 0.5f,
                              ext.z * 0.5f});
      }
      ++applied;
      ++update_stats_.updates;
      const auto new_cell =
          chunks > 1 ? scratch_cells_[i]
                     : static_cast<std::uint32_t>(CellOf(u.new_box.Center()));
      if (s.cell == kPendingCell) {
        // Same id updated twice in one batch: overwrite the staged move.
        // No journal record — the id's earlier kMigrateOut record already
        // holds its pre-batch box.
        staged[s.pos].box = u.new_box;
        staged[s.pos].cell = new_cell;
        continue;
      }
      Entry* e = fast_base != nullptr ? fast_base + s.pos
                                      : SpaceOf(s.cell).data() + s.pos;
      if (new_cell == s.cell) {
        journal_.push_back(
            UndoRecord{u.id, e->box, UndoKind::kInPlaceWrite});
        e->box = u.new_box;
        ++update_stats_.in_place;
        continue;
      }
      SIMSPATIAL_FAILPOINT("memgrid.apply.stage");
      journal_.push_back(UndoRecord{u.id, e->box, UndoKind::kMigrateOut});
      RemoveFromCell(s.cell, s.pos);
      slots_[u.id] =
          Slot{kPendingCell, static_cast<std::uint32_t>(staged.size())};
      staged.push_back(Migration{u.id, u.new_box, new_cell});
      ++update_stats_.migrations;
    }
    max_half_extent_ = batch_mhe;

    if (!staged.empty()) {
      // Group migrations by destination: one capacity check and one tight
      // write loop per destination cell.
      std::sort(staged.begin(), staged.end(),
                [](const Migration& a, const Migration& b) {
                  return a.cell < b.cell;
                });
      std::size_t i = 0;
      while (i < staged.size()) {
        std::size_t j = i + 1;
        while (j < staged.size() && staged[j].cell == staged[i].cell) ++j;
        const std::uint32_t cell = staged[i].cell;
        const auto run = static_cast<std::uint32_t>(j - i);
        // Churn cap deferred: shard live counts are deflated by the still-
        // staged migrations here, and a live-relative trigger would pay a
        // spurious stop-the-shard re-layout mid-batch. The growth trigger
        // (absolute footprint) stays armed.
        SIMSPATIAL_FAILPOINT("memgrid.apply.land");
        std::uint32_t pos = ReserveInCell(cell, run, /*allow_churn=*/false);
        // Re-resolve after ReserveInCell: it may have relocated the
        // region, re-laid-out the shard, or finished a compaction pass.
        // Past the reservation this group's landing is plain stores —
        // groups land atomically, so the rollback sees each id either
        // still pending or fully landed.
        const CellRef ref = ResolveCell(cell);
        Region& r = regions_[cell];
        for (std::size_t k = i; k < j; ++k, ++pos) {
          ref.data[pos] = Entry{staged[k].box, staged[k].id};
          slots_[staged[k].id] = Slot{cell, pos};
        }
        r.count += run;
        shards_[ref.shard].live += run;
        i = j;
      }
      // Re-run the deferred churn cap now that every migration has landed
      // and the live counts are settled — one cheap sweep per batch.
      for (std::size_t si = 0; si < shards_.size(); ++si) {
        MaybeReclaimShard(si, kNoCell, 0);
      }
    }
  } catch (...) {
    RollbackBatch(pre_stats, pre_mhe);
    journal_.clear();
    throw;
  }
  journal_.clear();
  // Budget-bounded incremental compaction: reclaim a few regions of
  // relocation churn per batch so steady-state mutation never triggers a
  // stop-the-shard re-layout. Runs after the structural phase, serially —
  // deterministic at every thread count. Outside the transaction: the
  // batch is committed by now, and CompactStep absorbs its own failures
  // (re-layout fallback) instead of throwing.
  CompactStep();
  return applied;
}

void MemGrid::RollbackBatch(const MemGridUpdateStats& pre_stats,
                            float pre_mhe) {
  try {
    // Reverse-order undo. Per id the journal holds zero or more
    // kInPlaceWrite records followed by at most one kMigrateOut, so by
    // the time an in-place record is undone, the id is guaranteed live in
    // its original cell (its migration — if any — was undone first).
    for (auto it = journal_.rbegin(); it != journal_.rend(); ++it) {
      const UndoRecord& u = *it;
      const Slot s = slots_[u.id];
      if (u.kind == UndoKind::kInPlaceWrite) {
        SpaceOf(s.cell)[s.pos].box = u.box;
        continue;
      }
      // kMigrateOut: take the element out of wherever the batch left it
      // (landed in its destination cell, or still pending — i.e. not in
      // the grid at all) and re-insert it with its pre-batch box. The box
      // centre maps back to the source cell by construction.
      if (s.cell < kPendingCell) RemoveFromCell(s.cell, s.pos);
      const auto cell = static_cast<std::uint32_t>(CellOf(u.box.Center()));
      const std::uint32_t pos = ReserveInCell(cell, 1);
      const CellRef ref = ResolveCell(cell);
      ref.data[pos] = Entry{u.box, u.id};
      ++regions_[cell].count;
      ++shards_[ref.shard].live;
      slots_[u.id] = Slot{cell, pos};
    }
    update_stats_ = pre_stats;
    max_half_extent_ = pre_mhe;
    ++update_stats_.rollbacks;
  } catch (...) {
    // The undo itself failed (a rollback-path reservation could not
    // allocate — e.g. a mid-batch re-layout shrank the source cell's
    // capacity below what the return trip needs). Escalate to the
    // rebuild-from-scratch fallback.
    RebuildFromJournal(pre_stats, pre_mhe);
  }
}

void MemGrid::RebuildFromJournal(const MemGridUpdateStats& pre_stats,
                                 float pre_mhe) {
  // Last resort: reconstruct the pre-batch element set and Build it. The
  // journal's FIRST record per id holds that id's pre-batch box; every
  // other live id is unchanged (ids the batch left pending are journaled
  // by construction, so nothing is lost). Build gives the strong
  // guarantee a second time; if even IT fails — sustained allocation
  // failure — the exception propagates and the grid is unusable, as
  // documented in the header.
  std::vector<std::uint8_t> seen(slots_.size(), 0);
  std::vector<Element> survivors;
  survivors.reserve(size_);
  for (const UndoRecord& u : journal_) {
    if (seen[u.id]) continue;
    seen[u.id] = 1;
    survivors.push_back(Element{u.id, u.box});
  }
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (seen[id]) continue;
    const Slot s = slots_[id];
    if (s.cell >= kPendingCell) continue;
    survivors.push_back(
        Element{static_cast<ElementId>(id), SpaceOf(s.cell)[s.pos].box});
  }
  Build(survivors);
  update_stats_ = pre_stats;
  max_half_extent_ = pre_mhe;
  ++update_stats_.rollbacks;
}

template <typename Sink>
void MemGrid::RangeScan(const AABB& range, const Sink& sink,
                        QueryCounters& c) const {
  // Completeness: a box intersecting `range` has its centre within
  // max_half_extent_ of the range, so inflate the probed cell span.
  const AABB probe = range.Inflated(max_half_extent_);
  std::int32_t x0, y0, z0, x1, y1, z1;
  CellCoords(probe.min, &x0, &y0, &z0);
  CellCoords(probe.max, &x1, &y1, &z1);
  // Degenerate probes, normalised in this ONE place. Zero-volume boxes are
  // legitimate plane/line/point queries and flow through unchanged. An
  // INVERTED box (min > max on some axis) can still match under the
  // pairwise closed-box Intersects semantics — but only an element
  // spanning the whole inversion gap, which forces max_half_extent_ >=
  // gap/2, which in turn de-inverts the inflated probe above. An inverted
  // CELL SPAN therefore proves no element can match (and must not reach
  // the traversals below, whose span math assumes x0 <= x1).
  if (x1 < x0 || y1 < y0 || z1 < z0) return;
  const auto scan_run = [&](const Entry* base, std::uint32_t begin,
                            std::uint32_t len) {
    if (len == 0) return;
    c.element_tests += len;
    c.bytes_read += len * sizeof(Entry);
    // Batched intersection over the run: transpose 8 entry boxes at a
    // time (Entry is AoS, the box leads the record) and walk the hit
    // mask in ascending lane order, preserving the scalar loop's rank-
    // order emission bit for bit.
    std::uint32_t e = begin;
    const std::uint32_t end = begin + len;
    while (e + kBoxBatchWidth <= end) {
      BoxBatch batch;
      BoxBatchLoad(&base[e].box, sizeof(Entry), kBoxBatchWidth, &batch);
      std::uint32_t mask = BoxBatchIntersect(batch, range);
      while (mask != 0) {
        const std::uint32_t lane = std::countr_zero(mask);
        mask &= mask - 1;
        sink(base[e + lane]);
      }
      e += kBoxBatchWidth;
    }
    for (; e < end; ++e) {
      if (base[e].box.Intersects(range)) sink(base[e]);
    }
  };
  // Scan the probed cells as fused contiguous-rank runs: in a pristine
  // layout, rank-consecutive regions are storage-adjacent (empty cells are
  // zero-width), so the cube's cells FUSE into a few long streams — whole
  // z-columns (and beyond) under kRowMajor, multi-cell curve runs under
  // kMorton/kHilbert. A run can only fuse within one block, so shard
  // boundaries (and a mid-compaction fresh/old split) break a run and the
  // scan falls back to per-cell granularity there — the emission ORDER
  // stays the rank order regardless, which is what keeps results
  // bit-identical across shard counts and compaction states.
  //
  // Two iteration orders produce those runs:
  //   * coordinate order — zero bookkeeping. Under kRowMajor cell index
  //     order IS rank order, so fusion is maximal; under the curve
  //     layouts fusion is opportunistic (the curve's locality still makes
  //     many coordinate-adjacent probe cells rank-adjacent). Small probes
  //     (the common monitoring query) always take this path.
  //   * curve-range decomposition (large probes on the curve layouts) —
  //     the BIGMIN recursion in CurveRangeRankRuns enumerates the maximal
  //     RANK runs straight from the curve's orthant walk, in ascending
  //     order, with no per-query sort, no O(cells) gather and no rank-map
  //     lookups outside the per-rank region walk.
  const bool single = shards_.size() == 1 && !shards_[0].compacting;
  const Entry* const single_base = shards_[0].block.data();
  constexpr std::size_t kNoRank = ~std::size_t{0};
  const Entry* run_base = nullptr;
  std::uint32_t run_begin = 0;
  std::uint32_t run_len = 0;
  const auto fuse_cell = [&](std::size_t cell, std::size_t rank_hint) {
    const Region& r = regions_[cell];
    c.nodes_visited += 1;
    if (r.count == 0) return;
    const Entry* base;
    if (single) {
      base = single_base;
    } else {
      const std::size_t rank =
          rank_hint != kNoRank ? rank_hint : CellRank(cell);
      const Shard& sh = shards_[ShardOfRank(rank)];
      base = (sh.compacting && rank < sh.cursor ? sh.fresh : sh.block).data();
    }
    if (run_len != 0 && base == run_base &&
        r.start == run_begin + run_len) {
      run_len += r.count;
      return;
    }
    // Fetch the upcoming run's first lines while the previous run is
    // being scanned — the run starts are the one access pattern the
    // hardware prefetcher cannot predict (they follow the layout, not an
    // address stride).
    __builtin_prefetch(base + r.start);
    __builtin_prefetch(base + r.start + 2);
    scan_run(run_base, run_begin, run_len);
    run_base = base;
    run_begin = r.start;
    run_len = r.count;
  };
  const std::size_t span_cells = static_cast<std::size_t>(x1 - x0 + 1) *
                                 static_cast<std::size_t>(y1 - y0 + 1) *
                                 static_cast<std::size_t>(z1 - z0 + 1);
  if (cell_of_rank_.empty() || span_cells < kCurveRunsMinCells) {
    for (std::int32_t x = x0; x <= x1; ++x) {
      for (std::int32_t y = y0; y <= y1; ++y) {
        const std::size_t base = CellIndex(x, y, z0);
        for (std::int32_t z = z0; z <= z1; ++z) {
          fuse_cell(base + static_cast<std::size_t>(z - z0), kNoRank);
        }
      }
    }
  } else {
    std::vector<CurveRun>& runs = RangeScanRuns();
    CurveRangeRankRuns(config_.layout, CellVecOf(x0, y0, z0),
                       CellVecOf(x1, y1, z1), CellVecOf(nx_, ny_, nz_),
                       curve_bits_, &runs);
    for (const CurveRun& rr : runs) {
      for (std::size_t rank = rr.begin; rank < rr.end; ++rank) {
        fuse_cell(cell_of_rank_[rank], rank);
      }
    }
  }
  scan_run(run_base, run_begin, run_len);
}

void MemGrid::RangeQuery(const AABB& range, std::vector<ElementId>* out,
                         QueryCounters* counters) const {
  out->clear();
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  RangeScan(range, [&](const Entry& e) { out->push_back(e.id); }, c);
  c.results += out->size();
}

std::size_t MemGrid::RangeQueryCount(const AABB& range,
                                     QueryCounters* counters) const {
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  std::size_t n = 0;
  RangeScan(range, [&](const Entry&) { ++n; }, c);
  c.results += n;
  return n;
}

void MemGrid::KnnQuery(const Vec3& p, std::size_t k,
                       std::vector<ElementId>* out,
                       QueryCounters* counters) const {
  out->clear();
  // A NaN coordinate has no distance order: answer nothing rather than
  // feed NaN keys to the heaps below.
  if (k == 0 || size_ == 0 || std::isnan(p.x) || std::isnan(p.y) ||
      std::isnan(p.z)) {
    return;
  }
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;

  // Best-first walk (Hjaltason & Samet, TODS'99) over the grid's own
  // cells. Every non-empty cell gets a lower bound on the distance from p
  // to any element it holds: the per-axis gap from p's cell slab to the
  // cell's faces, less max_half_extent_ and a cautious margin. The margin
  // absorbs the float divergence between the face positions computed here
  // (min + i*cell_) and the truncation grid CellCoords uses
  // ((v - min) * inv_cell_): both scale with the lattice span
  // (<= kMaxCellsPerAxis cells), so 1e-3*cell_ dominates the worst-case
  // rounding by an order of magnitude. An axis on which the cell shares
  // p's slab contributes 0, so the outer side of a boundary cell — into
  // which CellCoords clamps outlying centres — is unbounded. Float
  // squaring and summing are monotone, so per-axis gaps no larger than an
  // element's per-axis distances give a bound no larger than its
  // SquaredDistanceTo. Cells are pulled from a min-heap in (bound, cell)
  // order into a k-bounded max-heap of (distance, id); Chebyshev rings
  // around p's cell feed the cell heap lazily, a ring only once its face
  // gap could undercut the best pending cell. The walk ends when the next
  // cell's bound exceeds the k-th distance: a bound EQUAL to it may still
  // hide a tying element with a smaller id.
  std::int32_t cx, cy, cz;
  CellCoords(p, &cx, &cy, &cz);
  const auto nx = static_cast<std::int32_t>(nx_);
  const auto ny = static_cast<std::int32_t>(ny_);
  const auto nz = static_cast<std::int32_t>(nz_);
  const float slack = max_half_extent_ + cell_ * 1e-3f;
  // Gap along one axis from p (coordinate v, in slab ci) to lattice slab i.
  // `g > 0 ? g : 0` also maps the NaN of inf - inf (an infinite probe
  // against an infinite max_half_extent_) to the always-safe bound 0.
  const auto axis_gap = [&](float v, float lo, std::int32_t i,
                            std::int32_t ci) {
    float g = 0.0f;
    if (i > ci) g = (lo + static_cast<float>(i) * cell_ - v) - slack;
    if (i < ci) g = (v - (lo + static_cast<float>(i + 1) * cell_)) - slack;
    return g > 0.0f ? g : 0.0f;
  };

  KnnScratch& s = KnnScratchBuffers();
  std::vector<std::uint64_t>& cells = s.cells;  // Min-heap of (bound, cell).
  std::vector<std::uint64_t>& best = s.best;    // Max-heap of (dist, id).
  cells.clear();
  best.clear();
  // Key of the k-th best candidate once k are held; until then every
  // key compares below it.
  std::uint64_t kth = ~std::uint64_t{0};
  const auto push_cell = [&](std::int32_t x, std::int32_t y, std::int32_t z) {
    const std::size_t cell = CellIndex(x, y, z);
    if (regions_[cell].count == 0) return;
    const float gx = axis_gap(p.x, universe_.min.x, x, cx);
    const float gy = axis_gap(p.y, universe_.min.y, y, cy);
    const float gz = axis_gap(p.z, universe_.min.z, z, cz);
    const std::uint64_t key =
        PackKey(gx * gx + gy * gy + gz * gz, static_cast<std::uint32_t>(cell));
    // The k-th distance only shrinks, so a cell already beyond it never
    // needs a heap slot.
    if ((key >> 32) > (kth >> 32)) return;
    cells.push_back(key);
    std::push_heap(cells.begin(), cells.end(), std::greater<>());
  };
  // Ring r: the lattice cells at Chebyshev distance exactly r from p's.
  const auto push_ring = [&](std::int32_t r) {
    const std::int32_t x0 = std::max(cx - r, 0);
    const std::int32_t x1 = std::min(cx + r, nx - 1);
    const std::int32_t y0 = std::max(cy - r, 0);
    const std::int32_t y1 = std::min(cy + r, ny - 1);
    const std::int32_t z0 = std::max(cz - r, 0);
    const std::int32_t z1 = std::min(cz + r, nz - 1);
    for (std::int32_t x = x0; x <= x1; ++x) {
      for (std::int32_t y = y0; y <= y1; ++y) {
        if (x == cx - r || x == cx + r || y == cy - r || y == cy + r) {
          for (std::int32_t z = z0; z <= z1; ++z) push_cell(x, y, z);
        } else {
          if (cz - r >= 0) push_cell(x, y, cz - r);
          if (cz + r < nz) push_cell(x, y, cz + r);
        }
      }
    }
  };
  // Squared-gap bits bounding every cell beyond ring r: each lies past one
  // of the ring's open faces. False once ring r reaches the lattice edge
  // on every side (nothing lies beyond it).
  const auto beyond_ring = [&](std::int32_t r, std::uint32_t* bound) {
    float g = std::numeric_limits<float>::infinity();
    bool open = false;
    const auto side = [&](float v, float lo, std::int32_t ci,
                          std::int32_t n) {
      if (ci - r - 1 >= 0) {
        open = true;
        g = std::min(g, axis_gap(v, lo, ci - r - 1, ci));
      }
      if (ci + r + 1 < n) {
        open = true;
        g = std::min(g, axis_gap(v, lo, ci + r + 1, ci));
      }
    };
    side(p.x, universe_.min.x, cx, nx);
    side(p.y, universe_.min.y, cy, ny);
    side(p.z, universe_.min.z, cz, nz);
    *bound = std::bit_cast<std::uint32_t>(g * g);
    return open;
  };

  std::int32_t ring = 0;
  push_ring(0);
  std::uint32_t next_ring_bound = 0;
  bool rings_left = beyond_ring(0, &next_ring_bound);
  while (true) {
    while (rings_left && next_ring_bound <= (kth >> 32) &&
           (cells.empty() || next_ring_bound <= (cells.front() >> 32))) {
      push_ring(++ring);
      rings_left = beyond_ring(ring, &next_ring_bound);
    }
    if (cells.empty() || (cells.front() >> 32) > (kth >> 32)) break;
    const auto cell = static_cast<std::size_t>(cells.front() & 0xffffffffu);
    std::pop_heap(cells.begin(), cells.end(), std::greater<>());
    cells.pop_back();
    const Entry* entries = CellEntries(cell);
    const std::uint32_t count = regions_[cell].count;
    c.nodes_visited += 1;
    c.distance_computations += count;
    for (std::uint32_t e = 0; e < count; ++e) {
      const std::uint64_t key =
          PackKey(entries[e].box.SquaredDistanceTo(p), entries[e].id);
      if (best.size() < k) {
        best.push_back(key);
        std::push_heap(best.begin(), best.end());
        if (best.size() == k) kth = best.front();
      } else if (key < kth) {
        std::pop_heap(best.begin(), best.end());
        best.back() = key;
        std::push_heap(best.begin(), best.end());
        kth = best.front();
      }
    }
  }
  std::sort_heap(best.begin(), best.end());
  out->reserve(best.size());
  for (const std::uint64_t key : best) {
    out->push_back(static_cast<ElementId>(key & 0xffffffffu));
  }
  c.results += out->size();
}

namespace {
/// Rank-ordered probe schedule shared by the batch queries: pack each
/// probe as (anchor rank << 32 | original index) and LSD-radix-sort by the
/// rank bytes — the same machinery (and the same packing trick) as
/// BuildCurveRanks' key sort. The passes are stable, so equal-rank probes
/// keep submission order (the index bits never need sorting) and the
/// schedule is deterministic for any input. Shards partition the rank
/// space into contiguous ranges, so rank order IS (shard, rank) order: the
/// serve loop drains one shard completely before touching the next. Ranks
/// fit 32 bits (kMaxCellsPerAxis^3 = 2^30 cells); batches are bounded by
/// the same 32-bit index space, which nothing real approaches.
template <typename RankOf>
std::vector<std::uint64_t> RankOrderedSchedule(std::size_t n,
                                               std::size_t rank_bound,
                                               const RankOf& rank_of) {
  std::vector<std::uint64_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = (static_cast<std::uint64_t>(rank_of(i)) << 32) |
               static_cast<std::uint32_t>(i);
  }
  std::vector<std::uint64_t> scratch;
  RadixSortDigits(&order, &scratch, /*base_shift=*/32,
                  /*bound=*/static_cast<std::uint64_t>(rank_bound));
  return order;
}

/// Serve one contiguous slice of the rank-ordered schedule. Consecutive
/// probes stream overlapping (or storage-adjacent) regions while the
/// cache lines are warm, and an EXACT repeat of the previous probe — the
/// common case under Zipf-style serving traffic, and repeats sort
/// adjacent because identical probes share an anchor — reuses the
/// previous slot's emission and counter delta outright instead of
/// re-walking its traversal. Each probe writes only its own slot
/// (disjoint across workers), so the fan-out needs no synchronisation on
/// the data path. Shared verbatim by all three batch kernels: `slots`
/// only needs operator[] and slot assignment (id vectors for the
/// materialising kernels, plain counts for RangeQueryCountBatch), and
/// `serve_one(p, &slot, &delta)` is the per-probe query.
template <typename Probes, typename Slots, typename ServeOne>
void ServeScheduleSlice(const Probes& probes,
                        const std::vector<std::uint64_t>& order,
                        std::size_t begin, std::size_t end, Slots* slots,
                        QueryCounters* pc, const ServeOne& serve_one) {
  constexpr std::size_t kNoProbe = ~std::size_t{0};
  std::size_t prev = kNoProbe;
  QueryCounters prev_delta;
  for (std::size_t i = begin; i < end; ++i) {
    SIMSPATIAL_FAILPOINT("memgrid.batch.worker");
    const auto p = static_cast<std::size_t>(order[i] & 0xffffffffu);
    auto& slot = (*slots)[p];
    if (prev != kNoProbe && probes[p] == probes[prev]) {
      slot = (*slots)[prev];
      *pc += prev_delta;
      prev = p;
      continue;
    }
    QueryCounters delta;
    serve_one(p, &slot, &delta);
    *pc += delta;
    prev = p;
    prev_delta = delta;
  }
}

/// Fan the schedule across the thread pool as contiguous slices —
/// rank-range partitions, since the schedule is rank-sorted — with a
/// chunk-ordered counter merge so totals are thread-count invariant (the
/// per-probe deltas themselves are schedule-independent sums). threads <=
/// 1 serves the whole schedule inline, which IS the one-chunk partition.
template <typename Probes, typename Slots, typename ServeOne>
void ServeRankScheduled(const Probes& probes,
                        const std::vector<std::uint64_t>& order,
                        std::uint32_t threads, std::size_t grain,
                        Slots* slots, QueryCounters* c,
                        const ServeOne& serve_one) {
  const std::size_t n = order.size();
  const std::size_t chunks =
      threads <= 1 ? 1 : par::ChunkCount(threads, n, grain);
  if (chunks <= 1) {
    ServeScheduleSlice(probes, order, 0, n, slots, c, serve_one);
    return;
  }
  std::vector<QueryCounters> part(chunks);
  par::ParallelChunks(chunks, n,
                      [&](std::size_t w, std::size_t b, std::size_t e) {
                        ServeScheduleSlice(probes, order, b, e, slots,
                                           &part[w], serve_one);
                      });
  for (const QueryCounters& pc : part) *c += pc;
}
}  // namespace

std::size_t MemGrid::RangeAnchorRank(const AABB& range) const {
  // Mirror RangeScan's normalisation exactly (probe inflation, clamped
  // cell coords, inverted-span early-out) so the anchor schedules the
  // traversal that will actually run.
  const AABB probe = range.Inflated(max_half_extent_);
  std::int32_t x0, y0, z0, x1, y1, z1;
  CellCoords(probe.min, &x0, &y0, &z0);
  CellCoords(probe.max, &x1, &y1, &z1);
  if (x1 < x0 || y1 < y0 || z1 < z0) return 0;
  if (cell_of_rank_.empty()) return CellIndex(x0, y0, z0);  // Rank IS index.
  // The pruning-only first-CELL walk plus one rank_of_cell_ read gives the
  // first rank CurveRangeRankRuns would emit (rank is monotone in key over
  // lattice cells, and the box is clamped in-lattice) without the
  // per-pruned-block lattice-overlap accounting — the anchor has to be
  // far cheaper than the probe it schedules.
  const CellVec cell = CurveRangeFirstCell(
      config_.layout, CellVecOf(x0, y0, z0), CellVecOf(x1, y1, z1),
      curve_bits_);
  return rank_of_cell_[CellIndex(static_cast<std::int32_t>(cell[0]),
                                 static_cast<std::int32_t>(cell[1]),
                                 static_cast<std::int32_t>(cell[2]))];
}

void MemGrid::RangeQueryBatch(std::span<const AABB> probes,
                              std::vector<std::vector<ElementId>>* out,
                              QueryCounters* counters) const {
  // Every slot starts empty so a mid-batch failure (worker exception) can
  // never leave a torn slot: each slot is either still empty or the
  // complete per-probe emission — never a partial one.
  out->resize(probes.size());
  for (auto& slot : *out) slot.clear();
  if (probes.empty()) return;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  const auto order = RankOrderedSchedule(
      probes.size(), regions_.size() - 1,
      [&](std::size_t i) { return RangeAnchorRank(probes[i]); });
  ServeRankScheduled(probes, order, threads_, kBatchProbeGrain,
                     out, &c,
                     [&](std::size_t p, std::vector<ElementId>* slot,
                         QueryCounters* delta) {
                       RangeQuery(probes[p], slot, delta);
                     });
}

std::size_t MemGrid::RangeQueryCountBatch(std::span<const AABB> probes,
                                          std::vector<std::size_t>* counts,
                                          QueryCounters* counters) const {
  // Counts pre-zeroed for the same torn-slot guarantee: a mid-batch
  // failure leaves every slot either 0 or the complete per-probe count.
  counts->assign(probes.size(), 0);
  if (probes.empty()) return 0;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  const auto order = RankOrderedSchedule(
      probes.size(), regions_.size() - 1,
      [&](std::size_t i) { return RangeAnchorRank(probes[i]); });
  ServeRankScheduled(probes, order, threads_, kBatchProbeGrain,
                     counts, &c,
                     [&](std::size_t p, std::size_t* slot,
                         QueryCounters* delta) {
                       *slot = RangeQueryCount(probes[p], delta);
                     });
  std::size_t total = 0;
  for (const std::size_t n : *counts) total += n;
  return total;
}

void MemGrid::KnnQueryBatch(std::span<const Vec3> points, std::size_t k,
                            std::vector<std::vector<ElementId>>* out,
                            QueryCounters* counters) const {
  out->resize(points.size());
  for (auto& slot : *out) slot.clear();
  if (points.empty()) return;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;
  // kNN probes have no first interval — their walk grows outward from
  // the centre cell — so the centre cell's rank is the natural anchor.
  const auto order = RankOrderedSchedule(
      points.size(), regions_.size() - 1,
      [&](std::size_t i) { return CellRank(CellOf(points[i])); });
  ServeRankScheduled(points, order, threads_, kBatchProbeGrain,
                     out, &c,
                     [&](std::size_t p, std::vector<ElementId>* slot,
                         QueryCounters* delta) {
                       KnnQuery(points[p], k, slot, delta);
                     });
}

template <typename Matches>
void MemGrid::EmitMatches(const Entry* a, std::size_t an, const Entry* b,
                          std::size_t bn, bool same_run,
                          const Matches& matches,
                          std::vector<std::pair<ElementId, ElementId>>* out,
                          QueryCounters* c) {
  for (std::size_t i = 0; i < an; ++i) {
    for (std::size_t j = same_run ? i + 1 : 0; j < bn; ++j) {
      c->element_tests += 1;
      if (matches(a[i].box, b[j].box)) {
        out->emplace_back(std::min(a[i].id, b[j].id),
                          std::max(a[i].id, b[j].id));
      }
    }
  }
}

void MemGrid::SelfJoin(float eps,
                       std::vector<std::pair<ElementId, ElementId>>* out,
                       QueryCounters* counters) const {
  out->clear();
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;

  // Completeness needs matching centres within `reach` cells on each axis.
  // The classic §4.3 configuration (cell >= 2*max_half_extent + eps) gives
  // reach 1 and the 13-forward-neighbour sweep. Smaller cells — previously
  // only an assert, silently incomplete under NDEBUG — now widen the
  // neighbourhood instead: centres of matching boxes are at most
  // need = 2*max_half_extent + eps apart per axis, i.e. at most
  // floor(need/cell)+1 cells apart (+1 more as float-safety margin).
  const double need = 2.0 * static_cast<double>(max_half_extent_) +
                      static_cast<double>(eps);
  int reach = 1;
  if (static_cast<double>(cell_) < need) {
    // Clamp in double BEFORE the int cast: need/cell_ can exceed INT_MAX
    // for degenerate configs, and no axis spans more than kMaxCellsPerAxis
    // cells anyway.
    const double wanted = std::floor(need / static_cast<double>(cell_)) + 2.0;
    reach = static_cast<int>(
        std::min(wanted, static_cast<double>(kMaxCellsPerAxis)));
  }

  // Reach beyond the grid dimensions is unreachable — clamping per axis
  // bounds the widened sweep by the grid itself (degenerate configs like a
  // huge element in a fine grid would otherwise enumerate O(reach^3)
  // offsets).
  const int rx = std::min<int>(reach, static_cast<int>(nx_) - 1);
  const int ry = std::min<int>(reach, static_cast<int>(ny_) - 1);
  const int rz = std::min<int>(reach, static_cast<int>(nz_) - 1);

  const PairPredicate matches{eps, eps * eps};

  if (reach > 1) {
    // When the widened sweep visits about as many cells per bucket as
    // there are elements, the neighbourhood degenerates to "almost
    // everything" and a direct all-pairs scan over the live entries is
    // strictly cheaper (and trivially complete).
    const double sweep = static_cast<double>(rx + 1) *
                         (2.0 * ry + 1.0) * (2.0 * rz + 1.0);
    if (sweep >= static_cast<double>(size_)) {
      std::vector<Entry> live;
      live.reserve(size_);
      for (const Slot& s : slots_) {
        if (s.cell != kNoCell) live.push_back(SpaceOf(s.cell)[s.pos]);
      }
      EmitMatches(live.data(), live.size(), live.data(), live.size(),
                  /*same_run=*/true, matches, out, &c);
      c.results += out->size();
      return;
    }
  }

  // Rank-range parallelism: contiguous layout-rank ranges of origin cells,
  // so every worker sweeps the cells whose regions it will stream anyway
  // (and, unlike the former x-slab split, the partition grain never
  // degenerates on elongated universes with few x cells). An origin cell
  // may compare against neighbour cells in another worker's range — or
  // another SHARD's block (read-only) — but the forward convention means
  // each pair belongs to exactly one origin cell; concatenating range
  // outputs in rank order reproduces the serial emission order
  // pair-for-pair at every thread AND shard count. Tiny joins (the
  // per-step monitoring path at small n) stay serial — pool dispatch and
  // per-range buffers would dominate a microsecond-scale sweep.
  const std::size_t cells = regions_.size();
  const std::size_t chunks =
      size_ < kParallelGrain ? 1
                             : par::ChunkCount(threads_, cells, /*grain=*/1);
  if (chunks <= 1) {
    SweepRanks(0, cells, rx, ry, rz, /*fast13=*/reach == 1, eps, out, &c);
  } else {
    std::vector<std::vector<std::pair<ElementId, ElementId>>> parts(chunks);
    std::vector<QueryCounters> part_counters(chunks);
    par::ParallelChunks(chunks, cells,
                        [&](std::size_t w, std::size_t begin,
                            std::size_t end) {
                          SweepRanks(begin, end, rx, ry, rz,
                                     /*fast13=*/reach == 1, eps, &parts[w],
                                     &part_counters[w]);
                        });
    std::size_t total_pairs = out->size();
    for (const auto& part : parts) total_pairs += part.size();
    out->reserve(total_pairs);
    for (std::size_t w = 0; w < chunks; ++w) {
      out->insert(out->end(), parts[w].begin(), parts[w].end());
      c += part_counters[w];
    }
  }
  c.results += out->size();
}

void MemGrid::SweepRanks(std::size_t rank_begin, std::size_t rank_end, int rx,
                         int ry, int rz, bool fast13, float eps,
                         std::vector<std::pair<ElementId, ElementId>>* out,
                         QueryCounters* counters) const {
  QueryCounters& c = *counters;
  const PairPredicate matches{eps, eps * eps};
  const std::size_t plane = ny_ * nz_;
  for (std::size_t rank = rank_begin; rank < rank_end; ++rank) {
    const std::size_t cell = RankCell(rank);
    const Entry* bucket = CellEntries(cell);
    const std::uint32_t bucket_n = CellCount(cell);
    if (bucket_n == 0) continue;
    // Decode the origin's lattice coordinates from the raw cell index
    // (addressing stays row-major; only the sweep ORDER follows the
    // layout, which keeps the origin's own region hot in cache).
    const std::size_t xi = cell / plane;
    const std::size_t rem = cell - xi * plane;
    const std::size_t yi = rem / nz_;
    const std::size_t zi = rem - yi * nz_;
    c.nodes_visited += 1;
    EmitMatches(bucket, bucket_n, bucket, bucket_n, /*same_run=*/true,
                matches, out, &c);
    const auto visit = [&](int dx, int dy, int dz) {
      const std::int64_t x2 = static_cast<std::int64_t>(xi) + dx;
      const std::int64_t y2 = static_cast<std::int64_t>(yi) + dy;
      const std::int64_t z2 = static_cast<std::int64_t>(zi) + dz;
      if (x2 < 0 || y2 < 0 || z2 < 0 ||
          x2 >= static_cast<std::int64_t>(nx_) ||
          y2 >= static_cast<std::int64_t>(ny_) ||
          z2 >= static_cast<std::int64_t>(nz_)) {
        return;
      }
      const std::size_t other_cell = CellIndex(
          static_cast<std::int32_t>(x2), static_cast<std::int32_t>(y2),
          static_cast<std::int32_t>(z2));
      const std::uint32_t other_n = CellCount(other_cell);
      if (other_n == 0) return;
      const Entry* other = CellEntries(other_cell);
      EmitMatches(bucket, bucket_n, other, other_n, /*same_run=*/false,
                  matches, out, &c);
    };
    if (fast13) {
      for (const auto& d : kForward) visit(d[0], d[1], d[2]);
    } else {
      // All lexicographically-forward offsets within the widened reach;
      // each unordered cell pair is visited exactly once. The forward
      // neighbourhood splits into the same-column cap {0}x{0}x[1,rz], the
      // same-plane strip {0}x[1,ry]x[-rz,rz] and the bulk box
      // [1,rx]x[-ry,ry]x[-rz,rz]. The two thin slices stay coordinate
      // loops; under a curve layout the bulk box — the dominant cost at
      // widened reach — reuses CurveRangeRankRuns so its neighbour
      // regions are probed in rank order (storage-sequential streams
      // instead of a scatter per offset). Pair totals and counters match
      // the coordinate loop; only the emission ORDER inside the bulk box
      // follows the rank order, which is thread- and shard-count
      // invariant (the decomposition is a pure function of the probe box
      // and the codec).
      for (int dz = 1; dz <= rz; ++dz) visit(0, 0, dz);
      for (int dy = 1; dy <= ry; ++dy) {
        for (int dz = -rz; dz <= rz; ++dz) visit(0, dy, dz);
      }
      const std::size_t bx0 = xi + 1;
      if (bx0 < nx_) {
        const std::size_t bx1 = std::min(xi + static_cast<std::size_t>(rx),
                                         nx_ - 1);
        const std::size_t by0 = yi >= static_cast<std::size_t>(ry)
                                    ? yi - static_cast<std::size_t>(ry)
                                    : 0;
        const std::size_t by1 = std::min(yi + static_cast<std::size_t>(ry),
                                         ny_ - 1);
        const std::size_t bz0 = zi >= static_cast<std::size_t>(rz)
                                    ? zi - static_cast<std::size_t>(rz)
                                    : 0;
        const std::size_t bz1 = std::min(zi + static_cast<std::size_t>(rz),
                                         nz_ - 1);
        const std::size_t box_cells =
            (bx1 - bx0 + 1) * (by1 - by0 + 1) * (bz1 - bz0 + 1);
        static thread_local std::vector<CurveRun> fwd_runs;
        if (!cell_of_rank_.empty() && box_cells >= kCurveRunsMinCells) {
          CurveRangeRankRuns(config_.layout, CellVecOf(bx0, by0, bz0),
                             CellVecOf(bx1, by1, bz1),
                             CellVecOf(nx_, ny_, nz_), curve_bits_,
                             &fwd_runs);
          for (const CurveRun& rr : fwd_runs) {
            for (std::size_t r = rr.begin; r < rr.end; ++r) {
              const std::size_t other_cell = cell_of_rank_[r];
              const std::uint32_t other_n = CellCount(other_cell);
              if (other_n == 0) continue;
              EmitMatches(bucket, bucket_n, CellEntries(other_cell), other_n,
                          /*same_run=*/false, matches, out, &c);
            }
          }
        } else {
          for (int dx = 1; dx <= rx; ++dx) {
            for (int dy = -ry; dy <= ry; ++dy) {
              for (int dz = -rz; dz <= rz; ++dz) {
                visit(dx, dy, dz);
              }
            }
          }
        }
      }
    }
  }
}

std::vector<Element> MemGrid::SnapshotElements() const {
  std::vector<Element> out;
  out.reserve(size_);
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    const Slot& s = slots_[id];
    if (s.cell >= kPendingCell) continue;
    out.push_back(Element{static_cast<ElementId>(id),
                          SpaceOf(s.cell)[s.pos].box});
  }
  return out;
}

MemGridShape MemGrid::Shape() const {
  MemGridShape s;
  s.elements = size_;
  s.cells = regions_.size();
  s.nx = nx_;
  s.ny = ny_;
  s.nz = nz_;
  s.curve_bits = curve_bits_;
  s.cell_size = cell_;
  s.max_half_extent = max_half_extent_;
  s.layout = config_.layout;
  s.shards = shards_.size();
  s.pool_suppressed_errors = par::ThreadPool::Global().total_suppressed_errors();
  for (const Region& r : regions_) {
    s.occupied_cells += r.count == 0 ? 0 : 1;
    s.slack_slots += r.cap - r.count;
  }
  // Contiguous-rank streams a full-universe range query would scan: walk
  // the regions in rank order and count where storage adjacency breaks
  // (slack, relocations, shard boundaries and a mid-compaction block split
  // all break it; empty regions are zero-width).
  const Entry* next_base = nullptr;
  std::uint64_t next_start = 0;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const std::size_t cell = RankCell(r);
    const Region& reg = regions_[cell];
    if (reg.count == 0) continue;
    const Entry* base = SpaceOf(cell).data();
    if (s.layout_runs == 0 || base != next_base || reg.start != next_start) {
      ++s.layout_runs;
    }
    next_base = base;
    next_start = static_cast<std::uint64_t>(reg.start) + reg.count;
  }
  std::size_t shard_bytes = 0;
  for (const Shard& sh : shards_) {
    s.dead_slots += sh.dead + sh.fresh_dead;
    if (sh.compacting) ++s.compacting_shards;
    shard_bytes += (sh.block.capacity() + sh.fresh.capacity()) * sizeof(Entry);
  }
  s.bytes = shard_bytes + shards_.capacity() * sizeof(Shard) +
            shard_begin_rank_.capacity() * sizeof(std::uint32_t) +
            regions_.capacity() * sizeof(Region) +
            slots_.capacity() * sizeof(Slot) +
            rank_of_cell_.capacity() * sizeof(std::uint32_t) +
            cell_of_rank_.capacity() * sizeof(std::uint32_t);
  s.mean_occupancy = s.occupied_cells == 0
                         ? 0.0
                         : static_cast<double>(s.elements) /
                               static_cast<double>(s.occupied_cells);
  return s;
}

bool MemGrid::CheckInvariants(std::string* error) const {
  const auto fail = [&](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  // Rank-map sanity: under the curve layouts the two maps must be mutually
  // inverse permutations of the cell space.
  if (config_.layout != CellLayout::kRowMajor) {
    if (rank_of_cell_.size() != regions_.size() ||
        cell_of_rank_.size() != regions_.size()) {
      return fail("rank maps missing or mis-sized for curve layout");
    }
    for (std::size_t cell = 0; cell < regions_.size(); ++cell) {
      if (cell_of_rank_[rank_of_cell_[cell]] != cell) {
        return fail("rank maps are not inverse permutations");
      }
    }
  }
  // Shard boundaries must partition the rank space into contiguous,
  // non-empty ranges matching the shard descriptors.
  if (shards_.empty() || shard_begin_rank_.size() != shards_.size() + 1 ||
      shard_begin_rank_.front() != 0 ||
      shard_begin_rank_.back() != regions_.size()) {
    return fail("shard rank boundaries do not cover the rank space");
  }
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const Shard& sh = shards_[si];
    if (sh.rank_begin != shard_begin_rank_[si] ||
        sh.rank_end != shard_begin_rank_[si + 1] ||
        sh.rank_begin >= sh.rank_end) {
      return fail("shard " + std::to_string(si) + " rank range inconsistent");
    }
    if (!sh.compacting && !sh.fresh.empty()) {
      return fail("idle shard " + std::to_string(si) + " holds a fresh block");
    }
    if (sh.compacting &&
        (sh.cursor < sh.rank_begin || sh.cursor > sh.rank_end)) {
      return fail("shard " + std::to_string(si) + " cursor out of range");
    }
  }
  std::size_t total = 0;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    const Shard& sh = shards_[si];
    // After Build / re-layout / a relocation-free pass (and until the next
    // relocation or pass) the shard's block must be exactly in layout-rank
    // order: regions tightly packed by rank, covering the whole block.
    if (sh.pristine && !sh.compacting) {
      std::uint64_t cursor = 0;
      for (std::size_t rank = sh.rank_begin; rank < sh.rank_end; ++rank) {
        const Region& reg = regions_[RankCell(rank)];
        if (reg.start != cursor) {
          return fail("pristine shard not in layout rank order at rank " +
                      std::to_string(rank));
        }
        cursor += reg.cap;
      }
      if (cursor != sh.block.size()) {
        return fail("pristine rank order does not cover shard " +
                    std::to_string(si));
      }
    }
    std::vector<std::uint8_t> used_block(sh.block.size(), 0);
    std::vector<std::uint8_t> used_fresh(sh.fresh.size(), 0);
    std::size_t live = 0;
    for (std::size_t rank = sh.rank_begin; rank < sh.rank_end; ++rank) {
      const auto cell = static_cast<std::uint32_t>(RankCell(rank));
      const Region& r = regions_[cell];
      const bool in_fresh = sh.compacting && rank < sh.cursor;
      const std::vector<Entry>& space = in_fresh ? sh.fresh : sh.block;
      std::vector<std::uint8_t>& used = in_fresh ? used_fresh : used_block;
      if (r.count > r.cap) return fail("region count exceeds capacity");
      if (static_cast<std::size_t>(r.start) + r.cap > space.size()) {
        return fail("region exceeds its shard block");
      }
      for (std::uint32_t i = 0; i < r.cap; ++i) {
        if (used[r.start + i]++) return fail("overlapping cell regions");
      }
      for (std::uint32_t i = 0; i < r.count; ++i) {
        const std::uint32_t pos = r.start + i;
        const Entry& e = space[pos];
        ++total;
        ++live;
        if (e.id >= slots_.size() || slots_[e.id].cell != cell ||
            slots_[e.id].pos != pos) {
          return fail("slot map inconsistent for element " +
                      std::to_string(e.id));
        }
        if (CellOf(e.box.Center()) != cell) {
          return fail("element " + std::to_string(e.id) + " in wrong cell");
        }
      }
    }
    if (live != sh.live) {
      return fail("shard " + std::to_string(si) + " live count mismatch");
    }
  }
  if (total != size_) return fail("entry count mismatch");
  std::size_t live_slots = 0;
  for (const Slot& s : slots_) {
    if (s.cell == kPendingCell) return fail("pending slot leaked");
    if (s.cell != kNoCell) ++live_slots;
  }
  if (live_slots != size_) return fail("slot map count mismatch");
  return true;
}

}  // namespace simspatial::core
