// SimSpatial — cell-layout policy for MemGrid's slack-CSR block.
//
// The policy governs the ORDER in which per-cell regions are laid out in
// the one flat entry array; cell addressing stays raw row-major CellIndex
// everywhere, so the policy changes only which regions end up storage-
// adjacent. A 3-D-local query probes a small cube of cells; under the
// row-major order that cube is storage-contiguous only along z, while a
// space-filling-curve order keeps most of the cube in a handful of long
// contiguous rank runs — fewer, longer streams for the same probe
// (ROADMAP: "a space-filling-curve layout would tighten the working set of
// cubic probes"). The rank is also MemGrid's shard key: the entry block is
// split into contiguous rank ranges (MemGridConfig::shards), each with its
// own storage and compaction, so a curve layout doubles as a spatially
// coherent shard partition.

#ifndef SIMSPATIAL_CORE_CELL_LAYOUT_H_
#define SIMSPATIAL_CORE_CELL_LAYOUT_H_

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace simspatial::core {

/// Order of cell regions inside the slack-CSR entry block.
enum class CellLayout : std::uint8_t {
  /// x-major cell-index order (the classical CSR layout): z-columns are
  /// contiguous, (x, y) neighbours a whole plane apart. Zero metadata.
  kRowMajor = 0,
  /// Z-order (Morton) curve over the cell lattice: bit-interleaved ranks,
  /// cheap to compute, good locality with occasional long jumps.
  kMorton = 1,
  /// Hilbert curve over the cell lattice (Skilling transpose): consecutive
  /// keys are lattice neighbours (restricting to a non-power-of-two grid
  /// keeps almost all of that adjacency) — the tightest working set for
  /// cubic probes, at the cost of a dearer rank codec at build time.
  kHilbert = 2,
};

inline const char* ToString(CellLayout layout) {
  switch (layout) {
    case CellLayout::kRowMajor:
      return "rowmajor";
    case CellLayout::kMorton:
      return "morton";
    case CellLayout::kHilbert:
      return "hilbert";
  }
  return "rowmajor";
}

/// Parse a user-facing layout name ("rowmajor" | "morton" | "hilbert").
/// Returns false (and leaves *out untouched) for unknown names.
inline bool ParseCellLayout(std::string_view name, CellLayout* out) {
  if (name == "rowmajor") {
    *out = CellLayout::kRowMajor;
  } else if (name == "morton") {
    *out = CellLayout::kMorton;
  } else if (name == "hilbert") {
    *out = CellLayout::kHilbert;
  } else {
    return false;
  }
  return true;
}

/// One maximal run of consecutive lattice ranks, half-open: [begin, end).
struct CurveRun {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Integer lattice coordinates (cell coordinates, not positions).
using CellVec = std::array<std::uint32_t, 3>;

/// Decompose the inclusive lattice box [lo, hi] into the maximal runs of
/// consecutive lattice RANKS whose cells lie inside the box — rank = the
/// cell's position in the curve-key order of the nx*ny*nz lattice, i.e.
/// the order MemGrid lays its storage regions out (and shards them) in.
/// This is the classic BIGMIN/LITMAX z-order range splitting (Tropf &
/// Herzog, 1981), generalised to any *hierarchical* curve:
///
///   Both curve codecs refine the 2^bits cube into octants recursively, so
///   the cells whose keys share a 3*l-bit prefix form an axis-aligned
///   subcube of side 2^(bits-l) ("curve block"). The decomposition walks
///   blocks in key order — which IS the recursion that computes BIGMIN
///   (first in-box key after a miss) and LITMAX (last in-box key before
///   it) without ever materialising them:
///     * block disjoint from the box  -> skip it (the skipped keys are
///       exactly a (LITMAX, BIGMIN) gap, so it closes the current run);
///     * block contained in the box   -> its whole key interval extends
///       the current run (8^l cells appended in O(1));
///     * block straddling the box     -> descend into its 8 children in
///       key order.
///   For Morton the child visit order is the octant bit pattern itself
///   (the textbook BIGMIN bit-interleave recursion). For Hilbert each
///   recursion level applies a rotation/reflection, so the walk carries
///   an orientation STATE: one table lookup per octant yields its lattice
///   position and the child's state, making every block O(1) — no codec
///   evaluation anywhere in the recursion. The state table is not
///   hard-coded: it is derived from the codec at first use (see
///   BuildHilbertMachine in cell_layout.cc), and curve_runs_test expands
///   it against HilbertDecodeCell cell by cell.
///
///   Instead of key intervals the walk tracks the RUNNING COUNT of lattice
///   cells passed in key order: a pruned block adds its lattice overlap
///   (an O(1) per-axis clamp — no descent), an emitted block adds its full
///   8^l cells (a contained block of an in-lattice box is in-lattice), and
///   the cursor value at emission IS the run's first rank. No codec
///   evaluation and no rank-map lookups, and runs separated only by
///   out-of-lattice keys fuse automatically.
///
/// The runs are sorted ascending, pairwise disjoint, non-empty, and
/// maximal in rank space: the rank just past each run belongs to a lattice
/// cell outside the box. Their union is exactly the rank set of the box's
/// cells. On a power-of-two cube (dims == 2^bits on every axis) rank ==
/// curve key. Under kRowMajor rank is the row-major cell index over `dims`
/// (`bits` unused) and the runs are whole z-columns, fused across
/// columns/planes where adjacent.
///
/// `lo`/`hi` must satisfy lo[a] <= hi[a] < dims[a], and dims[a] <= 2^bits
/// on the curve layouts. `*out` is cleared first.
void CurveRangeRankRuns(CellLayout layout, const CellVec& lo,
                        const CellVec& hi, const CellVec& dims, int bits,
                        std::vector<CurveRun>* out);

/// The first in-box cell in curve-key order — the cell that owns the first
/// rank CurveRangeRankRuns emits for the box. The walk only prunes (no
/// lattice-overlap accounting on skipped blocks), so it costs about one
/// root-to-leaf descent for typical probes; callers that hold a
/// cell -> rank table (MemGrid's rank_of_cell_) recover the anchor rank
/// with one table read. The batch query engine uses that rank as each
/// probe's schedule anchor: sorting probes by it visits them in the order
/// a single sweep of the layout would first touch them. Requires a
/// non-empty box; `dims` is not needed because no rank is computed.
CellVec CurveRangeFirstCell(CellLayout layout, const CellVec& lo,
                            const CellVec& hi, int bits);

}  // namespace simspatial::core

#endif  // SIMSPATIAL_CORE_CELL_LAYOUT_H_
