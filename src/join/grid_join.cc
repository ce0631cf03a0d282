// Grid join — the §4.3 research direction, implemented.
//
// "Using grids where objects are quickly assigned to grid cells is an
// interesting research direction for the spatial join as well. Only objects
// in grid cells need to be compared with each other ... If, in addition,
// the size of the grid cells is chosen very small, then pairs of elements
// do not need to be tested for intersection ... elements may not be
// assigned to all intersecting cells, but elements in neighboring cells
// need to be compared with each other to limit replication."
//
// Exactly that design: every element is assigned to the single cell of its
// centre (no replication); candidate pairs come from the same cell and the
// 13 forward neighbour cells (half of the 26-neighbourhood, so each
// unordered cell pair is visited once). Completeness requires
//   cell_size >= max_element_extent + eps,
// because then two matching boxes have centres within one cell in every
// axis. The small-cell shortcut emits same-cell pairs without a test when
// the geometry already guarantees intersection.
//
// The grid is a sorted cell CSR, built per call in chunked passes on the
// par pool:
//   1. Bounds: one pass reduces the max/min element extent and the per-axis
//      centre range. Cell coordinates are floor(centre / cell), which is
//      monotone in the centre, so the centre range gives the occupied cell
//      range without a second pass.
//   2. Keys: each element's cell coordinates are packed x-major into one
//      integer key. Every axis field stores (coordinate - first occupied
//      cell + 1) in just enough bits for the occupied range plus one cell of
//      margin on each side. Adding a neighbour offset to a key is then
//      exact (no carry crosses a field) and keeps key order, and numeric
//      key order is lexicographic (x, y, z) cell order.
//   3. Sort: a stable LSD radix sort of uint64 words (key << index bits |
//      element index) on their key bits, each digit a chunked histogram
//      plus a chunked scatter in chunk order.
//   4. Layout: the elements are scattered in cell order (input order within
//      a cell) straight into structure-of-arrays columns (min x/y/z, max
//      x/y/z, id), padded by kPairLanes - 1 entries; then the occupied keys
//      and their start offsets.
//
// Candidate spans. z is the key's lowest field and its margin cells keep
// z - 1 and z + 1 inside the (x, y) column, so the cells (dx, dy, -1..+1)
// around a cell have three consecutive keys. Their occupied cells are
// therefore adjacent in the sorted key array and their elements one
// contiguous slice of the columns: a column span, ~3 cells and ~8.7
// elements on the neuron data where a cell holds ~2.9. The self-join's 13
// forward cells become five spans per element: the rest of its own cell
// together with cell (0, 0, +1), which directly follows it, then the
// columns (0, +1), (+1, -1), (+1, 0) and (+1, +1). The binary join's 27
// cells become its nine (dx, dy) columns. One PairKernel
// (common/geometry.h) tests each span four lanes at a time, with the
// operations and operand order of PairMatches; it reads up to three
// entries past a span's end, which the padding keeps in bounds, and masks
// those lanes off. Per (element, neighbour cell) loops were ~1M tiny loops
// per 200k-element join and cost more than the predicate; the spans made
// the join ~0.75x the time at 1 and 2 threads on a 4-CPU x86-64 host,
// with the same tests.
//
// The join walks the occupied cells in key order in contiguous chunks
// (join_parallel.h). Each column keeps two cursors into the key array, its
// first and one past its last occupied cell, set by binary search at the
// chunk's first cell; the column keys grow with the own key, so the
// cursors only move forward and no lookup hashes. Pairs come out per cell
// in (element, span) order: for each element in cell order, its spans in
// the order above, each ascending. The counters are those of a walk over
// the individual cells: element_tests one per tested pair, structure_tests
// one per occupied neighbour cell, nodes_visited one per own (b-side)
// cell, skipped_tests one per pair the shortcut emits.
//
// The sort words and the CSR (~50 bytes per element) belong to the calling
// thread and are reused by its next join. A simulation joins every step;
// when each join allocated and freed them afresh, the allocator handed the
// memory back to the OS and the next index build page-faulted it in again
// (perfbench sim-synapse setup_s rose ~20%).
//
// Extreme input: when the occupied range needs more key bits than the sort
// word leaves (huge or infinite coordinates, tiny cells), the bits are
// shared out between the axes and each axis clamps into the span its bits
// cover; NaN goes to the low border. Clamping moves cells closer together,
// never farther apart, so matching pairs still share or neighbour a cell
// and the join stays complete. Clamped cells may hold distant elements, so
// a clamp switches the small-cell shortcut off.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "join/join_parallel.h"
#include "join/spatial_join.h"

namespace simspatial::join {

namespace {

/// Elements per chunk below which the build passes stay on one thread.
constexpr std::size_t kElementGrain = 4096;
constexpr int kRadixBits = 11;
constexpr std::size_t kRadixBuckets = std::size_t{1} << kRadixBits;

/// Cell coordinates are kept within +-2^62, so int64 differences of two of
/// them cannot overflow.
constexpr float kCoordLimit = 0x1p62f;
constexpr std::int64_t kMaxCoord = std::int64_t{1} << 62;

/// Pass 1's reduction over one element set.
struct Bounds {
  float max_extent = 0.0f;
  float min_extent = std::numeric_limits<float>::max();
  /// Centre range per axis; NaN centres are skipped.
  std::array<float, 3> lo{std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::infinity()};
  std::array<float, 3> hi{-std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()};

  // `a < b` comparisons skip NaN, like std::max/std::min over a list.
  void Add(const Element& e) {
    const Vec3 ext = e.box.Extent();
    const Vec3 c = e.Center();
    for (int a = 0; a < 3; ++a) {
      if (max_extent < ext[a]) max_extent = ext[a];
      if (ext[a] < min_extent) min_extent = ext[a];
      if (c[a] < lo[a]) lo[a] = c[a];
      if (hi[a] < c[a]) hi[a] = c[a];
    }
  }
  void Merge(const Bounds& o) {
    if (max_extent < o.max_extent) max_extent = o.max_extent;
    if (o.min_extent < min_extent) min_extent = o.min_extent;
    for (int a = 0; a < 3; ++a) {
      if (o.lo[a] < lo[a]) lo[a] = o.lo[a];
      if (hi[a] < o.hi[a]) hi[a] = o.hi[a];
    }
  }
};

std::size_t ElementChunks(std::uint32_t threads, std::size_t n) {
  return par::ChunkCount(par::ResolveThreads(threads), n, kElementGrain);
}

Bounds ReduceBounds(const std::vector<Element>& elems, std::uint32_t threads) {
  std::vector<Bounds> part(ElementChunks(threads, elems.size()));
  par::ParallelChunks(part.size(), elems.size(),
                      [&](std::size_t w, std::size_t begin, std::size_t end) {
                        Bounds b;
                        for (std::size_t i = begin; i < end; ++i) {
                          b.Add(elems[i]);
                        }
                        part[w] = b;
                      });
  Bounds b;
  for (const Bounds& p : part) b.Merge(p);
  return b;
}

/// floor(v * inv) as an integer cell coordinate. NaN and values beyond
/// +-2^62 come back clamped and set `*clamped`; NaN goes low.
std::int64_t CellCoord(float v, float inv, bool* clamped) {
  const float f = std::floor(v * inv);
  if (f >= -kCoordLimit && f <= kCoordLimit) {
    return static_cast<std::int64_t>(f);
  }
  *clamped = true;
  return f > 0.0f ? kMaxCoord : -kMaxCoord;
}

/// Packs cell coordinates into order-preserving keys (see the file
/// comment). The radix sort stores a key above an element index in one
/// uint64, so keys get the bits that indices of `max_elements` leave.
class KeyLayout {
 public:
  KeyLayout(float cell, const Bounds& b, std::size_t max_elements)
      : inv_(1.0f / cell),
        index_bits_(std::bit_width(std::max<std::size_t>(max_elements, 1) -
                                   1)) {
    std::array<int, 3> need{};
    for (int a = 0; a < 3; ++a) {
      bool ignored = false;
      lo_[a] = CellCoord(b.lo[a], inv_, &ignored);
      hi_[a] = std::max(lo_[a], CellCoord(b.hi[a], inv_, &ignored));
      // Field values run 1..cells, plus the margin cells 0 and cells + 1.
      need[a] = std::bit_width(static_cast<std::uint64_t>(hi_[a]) -
                               static_cast<std::uint64_t>(lo_[a]) + 2);
    }
    // Share the key bits out, smallest need first: an axis whose range
    // does not fit its share clamps to the span its bits cover.
    std::array<int, 3> order{0, 1, 2};
    std::stable_sort(order.begin(), order.end(),
                     [&](int p, int q) { return need[p] < need[q]; });
    std::array<int, 3> bits{};
    int left = 64 - index_bits_;
    for (int k = 0; k < 3; ++k) {
      const int a = order[k];
      bits[a] = std::min(need[a], left / (3 - k));
      left -= bits[a];
      if (bits[a] < need[a]) {
        hi_[a] = lo_[a] + static_cast<std::int64_t>(
                              (std::uint64_t{1} << bits[a]) - 3);
      }
    }
    shift_ = {bits[1] + bits[2], bits[2], 0};
    key_bits_ = bits[0] + bits[1] + bits[2];
  }

  /// Key of the cell holding `p`; sets `*clamped` when a coordinate had to
  /// move into its axis' span.
  std::uint64_t KeyOf(const Vec3& p, bool* clamped) const {
    std::uint64_t key = 0;
    for (int a = 0; a < 3; ++a) {
      std::int64_t c = CellCoord(p[a], inv_, clamped);
      if (c < lo_[a]) {
        c = lo_[a];
        *clamped = true;
      } else if (c > hi_[a]) {
        c = hi_[a];
        *clamped = true;
      }
      key |= (static_cast<std::uint64_t>(c) -
              static_cast<std::uint64_t>(lo_[a]) + 1)
             << shift_[a];
    }
    return key;
  }

  /// Added (mod 2^64) to a key, gives the key of the cell at this offset.
  std::uint64_t Offset(int dx, int dy, int dz) const {
    return (static_cast<std::uint64_t>(dx) << shift_[0]) +
           (static_cast<std::uint64_t>(dy) << shift_[1]) +
           static_cast<std::uint64_t>(dz);
  }

  /// Key bits in use; every key is below 2^key_bits().
  int key_bits() const { return key_bits_; }
  /// Bits below the key in a sort word; index_bits() + key_bits() <= 64.
  int index_bits() const { return index_bits_; }

 private:
  float inv_;
  int index_bits_;
  std::array<std::int64_t, 3> lo_{};
  std::array<std::int64_t, 3> hi_{};  ///< Last cell of each axis' span.
  std::array<int, 3> shift_{};
  int key_bits_ = 0;
};

/// The sorted cell CSR of one element set. The element columns are in cell
/// order (input order within a cell) and carry kPairLanes - 1 padding
/// entries after the last element, so a PairKernel load from any span
/// start stays in bounds.
struct CellCsr {
  std::array<std::vector<float>, 6> box;  ///< min x/y/z, then max x/y/z.
  std::vector<ElementId> ids;
  std::vector<std::uint64_t> keys;   ///< Occupied cells, ascending.
  std::vector<std::uint32_t> start;  ///< keys.size() + 1 offsets into ids.
  bool clamped = false;              ///< Some element's cell was clamped.

  std::size_t cells() const { return keys.size(); }
  BoxColumns columns() const {
    return {box[0].data(), box[1].data(), box[2].data(),
            box[3].data(), box[4].data(), box[5].data()};
  }
};

/// Buffers reused by every join on one thread (see the file comment).
struct Scratch {
  std::vector<std::uint64_t> cur;   ///< Radix sort words.
  std::vector<std::uint64_t> next;  ///< Radix sort words.
  std::array<CellCsr, 2> csr;       ///< Self-join: [0]; binary join: a, b.
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Builds the CSR of `src` into `s->csr[side]`, reusing the capacity of
/// `s`'s vectors.
const CellCsr& BuildCsr(const std::vector<Element>& src,
                        const KeyLayout& layout, std::uint32_t threads,
                        Scratch* s, std::size_t side) {
  CellCsr& g = s->csr[side];
  const std::size_t n = src.size();
  const std::size_t chunks = ElementChunks(threads, n);
  const int passes = (layout.key_bits() + kRadixBits - 1) / kRadixBits;
  // Sort words: key << index_bits | element index. Sorting on the key bits
  // alone, stably, keeps input order within a cell.
  const int ib = layout.index_bits();
  const std::uint64_t index_mask = (std::uint64_t{1} << ib) - 1;
  std::vector<std::uint64_t>& cur = s->cur;
  std::vector<std::uint64_t>& next = s->next;
  cur.resize(n);
  next.resize(n);
  std::vector<std::array<std::uint32_t, kRadixBuckets>> hist(chunks);
  std::vector<char> chunk_clamped(chunks, 0);

  // Keys, fused with the first digit's histogram.
  par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                     std::size_t end) {
    hist[w].fill(0);
    bool clamped = false;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint64_t key = layout.KeyOf(src[i].Center(), &clamped);
      cur[i] = key << ib | i;
      ++hist[w][key & (kRadixBuckets - 1)];
    }
    chunk_clamped[w] = clamped;
  });

  // Stable LSD passes: chunk w's items of a bucket land after chunk w-1's.
  for (int p = 0; p < passes; ++p) {
    const int shift = ib + p * kRadixBits;
    if (p > 0) {
      par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                         std::size_t end) {
        hist[w].fill(0);
        for (std::size_t i = begin; i < end; ++i) {
          ++hist[w][(cur[i] >> shift) & (kRadixBuckets - 1)];
        }
      });
    }
    std::uint32_t total = 0;
    for (std::size_t d = 0; d < kRadixBuckets; ++d) {
      for (std::size_t w = 0; w < chunks; ++w) {
        const std::uint32_t k = hist[w][d];
        hist[w][d] = total;
        total += k;
      }
    }
    par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                       std::size_t end) {
      auto& cursor = hist[w];
      for (std::size_t i = begin; i < end; ++i) {
        next[cursor[(cur[i] >> shift) & (kRadixBuckets - 1)]++] = cur[i];
      }
    });
    cur.swap(next);
  }

  // Layout: scatter the elements into the columns and count cell heads per
  // chunk, then write each chunk's cells at its prefix offset.
  const auto is_head = [&](std::size_t i) {
    return i == 0 || (cur[i] >> ib) != (cur[i - 1] >> ib);
  };
  for (std::vector<float>& column : g.box) {
    column.resize(n + kPairLanes - 1);
    std::fill(column.begin() + static_cast<std::ptrdiff_t>(n), column.end(),
              0.0f);
  }
  g.ids.resize(n);
  std::vector<std::size_t> heads(chunks + 1, 0);
  par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                     std::size_t end) {
    std::size_t h = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Element& e = src[cur[i] & index_mask];
      g.box[0][i] = e.box.min.x;
      g.box[1][i] = e.box.min.y;
      g.box[2][i] = e.box.min.z;
      g.box[3][i] = e.box.max.x;
      g.box[4][i] = e.box.max.y;
      g.box[5][i] = e.box.max.z;
      g.ids[i] = e.id;
      h += is_head(i);
    }
    heads[w + 1] = h;
  });
  for (std::size_t w = 0; w < chunks; ++w) heads[w + 1] += heads[w];
  g.keys.resize(heads[chunks]);
  g.start.resize(heads[chunks] + 1);
  g.start.back() = static_cast<std::uint32_t>(n);
  par::ParallelChunks(chunks, n, [&](std::size_t w, std::size_t begin,
                                     std::size_t end) {
    std::size_t c = heads[w];
    for (std::size_t i = begin; i < end; ++i) {
      if (is_head(i)) {
        g.keys[c] = cur[i] >> ib;
        g.start[c] = static_cast<std::uint32_t>(i);
        ++c;
      }
    }
  });
  g.clamped = std::find(chunk_clamped.begin(), chunk_clamped.end(), 1) !=
              chunk_clamped.end();
  return g;
}

/// A contiguous run [begin, end) of a CSR's element columns.
struct Span {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// The occupied cells of one (dx, dy) column, dz = -1..+1, around an own
/// key that only grows: two forward-only cursors into `g.keys`.
class ColumnCursor {
 public:
  ColumnCursor() = default;
  /// `offset` is the key offset (dx, dy, 0); `key` the chunk's first key.
  ColumnCursor(const CellCsr& g, std::uint64_t offset, std::uint64_t key)
      : g_(&g), offset_(offset) {
    const auto& k = g.keys;
    // key + offset + 1 (the column's last cell) fits the key, but + 2 can
    // carry out of it when every field sits at its top margin, so the end
    // cursor is an upper bound on the last cell.
    first_ = static_cast<std::size_t>(
        std::lower_bound(k.begin(), k.end(), key + offset - 1) - k.begin());
    last_ = static_cast<std::size_t>(
        std::upper_bound(k.begin(), k.end(), key + offset + 1) - k.begin());
  }

  /// Moves to the column around `key` (not below the previous key) and
  /// returns its elements; adds its occupied cells to `*cells`.
  Span Seek(std::uint64_t key, std::uint64_t* cells) {
    const std::vector<std::uint64_t>& k = g_->keys;
    while (first_ < k.size() && k[first_] < key + offset_ - 1) ++first_;
    while (last_ < k.size() && k[last_] <= key + offset_ + 1) ++last_;
    *cells += last_ - first_;
    return {g_->start[first_], g_->start[last_]};
  }

 private:
  const CellCsr* g_ = nullptr;
  std::uint64_t offset_ = 0;
  std::size_t first_ = 0;
  std::size_t last_ = 0;
};

/// One cursor per column offset, positioned at the chunk's first key.
template <std::size_t N>
std::array<ColumnCursor, N> ColumnCursors(
    const CellCsr& g, const std::array<std::uint64_t, N>& offsets,
    std::uint64_t key) {
  std::array<ColumnCursor, N> cursors;
  for (std::size_t k = 0; k < N; ++k) {
    cursors[k] = ColumnCursor(g, offsets[k], key);
  }
  return cursors;
}

/// Seeks every column to `key`: their spans, the occupied cells counted
/// into `*cells`, and the spans' total length into `*candidates`.
template <std::size_t N>
std::array<Span, N> SeekColumns(std::array<ColumnCursor, N>* cursors,
                                std::uint64_t key, std::uint64_t* cells,
                                std::uint64_t* candidates) {
  std::array<Span, N> spans;
  for (std::size_t k = 0; k < N; ++k) {
    spans[k] = (*cursors)[k].Seek(key, cells);
    *candidates += spans[k].end - spans[k].begin;
  }
  return spans;
}

float CellSize(const GridJoinOptions& options, float max_extent, float eps) {
  const float cell =
      options.cell_size > 0.0f ? options.cell_size : max_extent + eps + 1e-5f;
  return std::max(cell, 1e-5f);
}

}  // namespace

std::vector<JoinPair> GridSelfJoin(const std::vector<Element>& elems,
                                   float eps, GridJoinOptions options,
                                   QueryCounters* counters,
                                   GridJoinStats* stats) {
  std::vector<JoinPair> out;
  if (elems.size() < 2) return out;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;

  const Bounds bounds = ReduceBounds(elems, options.threads);
  const float cell = CellSize(options, bounds.max_extent, eps);
  if (stats != nullptr) stats->cell_size = cell;
  const KeyLayout layout(cell, bounds, elems.size());
  const CellCsr& g =
      BuildCsr(elems, layout, options.threads, &ThreadScratch(), 0);
  const BoxColumns cols = g.columns();

  // Small-cell shortcut precondition (§4.3): if every element extends at
  // least a full cell diagonal from its centre in every direction, two
  // same-cell centres always intersect. Conservative sufficient condition:
  // min extent >= 2 * cell diagonal.
  const bool shortcut = options.small_cell_shortcut && eps == 0.0f &&
                        !g.clamped &&
                        bounds.min_extent >= 2.0f * cell * std::sqrt(3.0f);

  // The forward columns besides the own one (see the file comment).
  const std::array<std::uint64_t, 4> offsets = {
      layout.Offset(0, 1, 0), layout.Offset(1, -1, 0), layout.Offset(1, 0, 0),
      layout.Offset(1, 1, 0)};
  detail::RunDeterministicChunks(
      g.cells(), options.threads, &out, &c,
      stats != nullptr ? &stats->skipped_tests : nullptr,
      [&](detail::JoinShard* shard, std::size_t begin, std::size_t end) {
        if (begin == end) return;
        QueryCounters& sc = shard->counters;
        auto cursors = ColumnCursors(g, offsets, g.keys[begin]);
        for (std::size_t ci = begin; ci < end; ++ci) {
          const std::uint64_t key = g.keys[ci];
          std::uint64_t candidates = 0;
          const auto spans =
              SeekColumns(&cursors, key, &sc.structure_tests, &candidates);
          const std::uint32_t lo = g.start[ci];
          const std::uint32_t hi = g.start[ci + 1];
          // Cell (0, 0, +1) directly follows the own cell when occupied.
          std::uint32_t up_end = hi;
          if (ci + 1 < g.cells() && g.keys[ci + 1] == key + 1) {
            up_end = g.start[ci + 2];
            sc.structure_tests += 1;
          }
          const std::uint64_t m = hi - lo;
          const std::uint64_t same_cell = m * (m - 1) / 2;
          sc.nodes_visited += 1;
          sc.element_tests += m * (up_end - hi + candidates);
          if (shortcut) {
            shard->skipped_tests += same_cell;
          } else {
            sc.element_tests += same_cell;
          }
          for (std::uint32_t i = lo; i < hi; ++i) {
            const ElementId id = g.ids[i];
            const auto emit = [&](std::size_t j) {
              shard->pairs.emplace_back(std::min(id, g.ids[j]),
                                        std::max(id, g.ids[j]));
            };
            std::uint32_t from = i + 1;
            if (shortcut) {
              for (; from < hi; ++from) emit(from);
            }
            const PairKernel<true> kernel(cols.Box(i), eps);
            kernel.Scan(cols, from, up_end, emit);
            for (const Span& s : spans) kernel.Scan(cols, s.begin, s.end, emit);
          }
        }
      });
  c.results += out.size();
  return out;
}

std::vector<JoinPair> GridJoin(const std::vector<Element>& a,
                               const std::vector<Element>& b, float eps,
                               GridJoinOptions options,
                               QueryCounters* counters,
                               GridJoinStats* stats) {
  std::vector<JoinPair> out;
  if (a.empty() || b.empty()) return out;
  QueryCounters local;
  QueryCounters& c = counters != nullptr ? *counters : local;

  // One key layout for both sides, so a b-cell key plus an offset is the
  // key of the a-cell there.
  Bounds bounds = ReduceBounds(a, options.threads);
  bounds.Merge(ReduceBounds(b, options.threads));
  const float cell = CellSize(options, bounds.max_extent, eps);
  if (stats != nullptr) stats->cell_size = cell;
  const KeyLayout layout(cell, bounds, std::max(a.size(), b.size()));
  Scratch& scratch = ThreadScratch();
  const CellCsr& ga = BuildCsr(a, layout, options.threads, &scratch, 0);
  const CellCsr& gb = BuildCsr(b, layout, options.threads, &scratch, 1);
  const BoxColumns a_cols = ga.columns();
  const BoxColumns b_cols = gb.columns();

  // For each b-cell (in key order), the nine a-side columns around it: the
  // 27-neighbourhood (a binary join has no symmetric halving).
  std::array<std::uint64_t, 9> offsets{};
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      offsets[static_cast<std::size_t>(3 * (dx + 1) + dy + 1)] =
          layout.Offset(dx, dy, 0);
    }
  }
  detail::RunDeterministicChunks(
      gb.cells(), options.threads, &out, &c, nullptr,
      [&](detail::JoinShard* shard, std::size_t begin, std::size_t end) {
        if (begin == end) return;
        QueryCounters& sc = shard->counters;
        auto cursors = ColumnCursors(ga, offsets, gb.keys[begin]);
        for (std::size_t ci = begin; ci < end; ++ci) {
          std::uint64_t candidates = 0;
          const auto spans = SeekColumns(&cursors, gb.keys[ci],
                                         &sc.structure_tests, &candidates);
          const std::uint32_t lo = gb.start[ci];
          const std::uint32_t hi = gb.start[ci + 1];
          sc.nodes_visited += 1;
          sc.element_tests += std::uint64_t{hi - lo} * candidates;
          for (std::uint32_t i = lo; i < hi; ++i) {
            const ElementId id = gb.ids[i];
            const auto emit = [&](std::size_t j) {
              shard->pairs.emplace_back(ga.ids[j], id);
            };
            // PairMatches(a-side, b-side): the b element is the second box.
            const PairKernel<false> kernel(b_cols.Box(i), eps);
            for (const Span& s : spans) {
              kernel.Scan(a_cols, s.begin, s.end, emit);
            }
          }
        }
      });
  c.results += out.size();
  return out;
}

}  // namespace simspatial::join
