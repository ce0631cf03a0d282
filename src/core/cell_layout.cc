#include "core/cell_layout.h"

#include <algorithm>
#include <cassert>

#include "common/geometry.h"

namespace simspatial::core {

namespace {

/// Append [begin, end) to the run list, fusing with the previous run when
/// key-adjacent — valid only while emission is in ascending key order.
inline void EmitRun(std::uint64_t begin, std::uint64_t end,
                    std::vector<CurveRun>* out) {
  if (!out->empty() && out->back().end == begin) {
    out->back().end = end;
  } else {
    out->push_back(CurveRun{begin, end});
  }
}

// ---------------------------------------------------------------------------
// Hilbert state machine, derived numerically from the codec.
//
// A Hilbert curve is self-similar: the sub-curve inside each octant is the
// canonical curve under a signed axis permutation (rotation/reflection),
// and that transform depends only on the octant's VISIT POSITION, not on
// the refinement level. The classic table-driven decomposition exploits
// this: a walk state is the accumulated transform, and one table lookup
// per octant yields both its lattice position and the child state — no
// codec evaluation anywhere in the recursion.
//
// Rather than hard-coding the 3-D table (whose entries depend on exactly
// which of the many "the" Hilbert curves HilbertEncodeCell implements),
// BuildHilbertMachine() derives it FROM the codec at first use: the eight
// child transforms are solved from the bits=2 decode and the state set is
// closed under composition (at most the 48 signed permutations). The
// derivation is a pure function of the codec, so its check is a test:
// curve_runs_test expands the walk over the full bits=3 and bits=4 cubes
// and compares it cell by cell with HilbertDecodeCell (debug builds also
// assert the same comparison here).

/// Signed permutation of the axes acting on octant bit-triples
/// (x | y<<1 | z<<2): output axis a reads input axis `axis[a]`, XOR
/// `flip[a]`.
struct AxisMap {
  std::uint8_t axis[3] = {0, 1, 2};
  std::uint8_t flip[3] = {0, 0, 0};

  std::uint8_t Apply(std::uint8_t v) const {
    std::uint8_t r = 0;
    for (int a = 0; a < 3; ++a) {
      r = static_cast<std::uint8_t>(
          r | ((((v >> axis[a]) & 1u) ^ flip[a]) << a));
    }
    return r;
  }
  /// (*this) o t: apply `t` first, then this.
  AxisMap Compose(const AxisMap& t) const {
    AxisMap c;
    for (int a = 0; a < 3; ++a) {
      c.axis[a] = t.axis[axis[a]];
      c.flip[a] = flip[a] ^ t.flip[axis[a]];
    }
    return c;
  }
  /// Dense packing for the state-id lookup (axis is a permutation, so 9
  /// bits suffice).
  std::uint16_t Packed() const {
    return static_cast<std::uint16_t>(axis[0] | axis[1] << 2 | axis[2] << 4 |
                                      flip[0] << 6 | flip[1] << 7 |
                                      flip[2] << 8);
  }
};

constexpr int kMaxStates = 48;  // |signed permutations of 3 axes|.

struct HilbertMachine {
  std::uint8_t oct[kMaxStates][8];   ///< (state, visit pos) -> octant triple.
  std::uint8_t next[kMaxStates][8];  ///< (state, visit pos) -> child state.
};

std::uint8_t PackedCell(std::uint64_t key, int bits) {
  std::uint32_t x, y, z;
  HilbertDecodeCell(key, bits, &x, &y, &z);
  return static_cast<std::uint8_t>((x & 1u) | (y & 1u) << 1 | (z & 1u) << 2);
}

/// Expand the machine into the key -> cell mapping of a `bits`-deep curve
/// and compare against the codec (a debug-build assert).
[[maybe_unused]] bool MachineMatchesCodec(const HilbertMachine& m, int bits) {
  struct Frame {
    std::uint32_t bx, by, bz;
    std::uint8_t state;
  };
  const std::uint64_t keys = std::uint64_t{1} << (3 * bits);
  for (std::uint64_t key = 0; key < keys; ++key) {
    Frame f{0, 0, 0, 0};
    for (int level = bits - 1; level >= 0; --level) {
      const auto p = static_cast<std::uint32_t>(key >> (3 * level)) & 7u;
      const std::uint8_t o = m.oct[f.state][p];
      f.bx |= (o & 1u) << level;
      f.by |= ((o >> 1) & 1u) << level;
      f.bz |= ((o >> 2) & 1u) << level;
      f.state = m.next[f.state][p];
    }
    std::uint32_t x, y, z;
    HilbertDecodeCell(key, bits, &x, &y, &z);
    if (x != f.bx || y != f.by || z != f.bz) return false;
  }
  return true;
}

HilbertMachine BuildHilbertMachine() {
  HilbertMachine m{};
  // Canonical first-level visit order (the bits=1 curve) and, from the
  // bits=2 curve, the signed permutation each visit position applies to
  // its sub-curve.
  std::uint8_t canon[8];
  for (std::uint64_t p = 0; p < 8; ++p) canon[p] = PackedCell(p, 1);
  AxisMap child_map[8];
  for (std::uint64_t p = 0; p < 8; ++p) {
    // Local 1-bit coords of the 8 cells inside visit-position p's octant.
    std::uint8_t local[8];
    for (std::uint64_t k = 0; k < 8; ++k) {
      std::uint32_t x, y, z;
      HilbertDecodeCell(p * 8 + k, 2, &x, &y, &z);
      local[k] = static_cast<std::uint8_t>((x & 1u) | (y & 1u) << 1 |
                                           (z & 1u) << 2);
    }
    // Solve local[k] == T(canon[k]) for the signed permutation T.
    AxisMap t;
    for (int a = 0; a < 3; ++a) {
      bool solved = false;
      for (std::uint8_t in = 0; in < 3 && !solved; ++in) {
        for (std::uint8_t f = 0; f < 2 && !solved; ++f) {
          bool all = true;
          for (int k = 0; k < 8; ++k) {
            if (((local[k] >> a) & 1u) !=
                (((canon[k] >> in) & 1u) ^ f)) {
              all = false;
              break;
            }
          }
          if (all) {
            t.axis[a] = in;
            t.flip[a] = f;
            solved = true;
          }
        }
      }
      assert(solved && "Hilbert codec is not self-similar");
    }
    child_map[p] = t;
  }
  // Close the state set under composition (BFS from the identity).
  std::vector<AxisMap> states;
  std::array<std::int8_t, 512> id_of;
  id_of.fill(-1);
  // Every state is a signed permutation, so at most kMaxStates exist.
  const auto intern = [&](const AxisMap& s) -> int {
    const std::uint16_t packed = s.Packed();
    if (id_of[packed] >= 0) return id_of[packed];
    id_of[packed] = static_cast<std::int8_t>(states.size());
    states.push_back(s);
    return id_of[packed];
  };
  intern(AxisMap{});
  for (std::size_t s = 0; s < states.size(); ++s) {
    const AxisMap state = states[s];  // By value: `states` grows below.
    for (int p = 0; p < 8; ++p) {
      m.oct[s][p] = state.Apply(canon[p]);
      m.next[s][p] =
          static_cast<std::uint8_t>(intern(state.Compose(child_map[p])));
    }
  }
  assert(states.size() <= kMaxStates);
  assert(MachineMatchesCodec(m, 3) && MachineMatchesCodec(m, 4));
  return m;
}

const HilbertMachine& GetHilbertMachine() {
  static const HilbertMachine machine = BuildHilbertMachine();
  return machine;
}

/// The Morton "machine" is the trivial one-state machine: our encode puts
/// x in the least-significant interleave slot, so visit position p IS the
/// octant triple and every child shares the orientation.
const HilbertMachine& GetMortonMachine() {
  static const HilbertMachine machine = [] {
    HilbertMachine m{};
    for (int p = 0; p < 8; ++p) {
      m.oct[0][p] = static_cast<std::uint8_t>(p);
      m.next[0][p] = 0;
    }
    return m;
  }();
  return machine;
}

/// Lattice cells inside the block at (bx, by, bz) with side 2^level: what
/// a pruned block contributes to the rank cursor of the walk below.
std::uint64_t LatticeOverlap(std::uint32_t bx, std::uint32_t by,
                             std::uint32_t bz, int level,
                             const CellVec& dims) {
  const std::uint32_t side = 1u << level;
  const std::uint64_t ox =
      bx >= dims[0] ? 0 : std::min<std::uint64_t>(side, dims[0] - bx);
  const std::uint64_t oy =
      by >= dims[1] ? 0 : std::min<std::uint64_t>(side, dims[1] - by);
  const std::uint64_t oz =
      bz >= dims[2] ? 0 : std::min<std::uint64_t>(side, dims[2] - bz);
  return ox * oy * oz;
}

/// Key-order block walk (see the CurveRangeRankRuns header comment): the
/// block at (bx, by, bz) with side 2^level is traversed by `state`'s
/// orientation — O(1) per block, one table lookup per octant, no codec
/// evaluation. `*cursor` counts the lattice cells passed so far, so at
/// emission time it IS the block's first rank; every block, emitted or
/// pruned, advances it. Emission is in ascending cursor order, so
/// EmitRun's one-back fusion yields the maximal runs directly — and blocks
/// fully outside the lattice advance nothing, fusing runs across
/// out-of-lattice key gaps.
void WalkBlocks(const HilbertMachine& m, int level, std::uint32_t bx,
                std::uint32_t by, std::uint32_t bz, std::uint8_t state,
                const CellVec& lo, const CellVec& hi, const CellVec& dims,
                std::uint64_t* cursor, std::vector<CurveRun>* out) {
  const std::uint32_t side_minus_1 = (1u << level) - 1u;
  if (bx > hi[0] || bx + side_minus_1 < lo[0] || by > hi[1] ||
      by + side_minus_1 < lo[1] || bz > hi[2] || bz + side_minus_1 < lo[2]) {
    // Disjoint: the block's keys are exactly a (LITMAX, BIGMIN) gap.
    *cursor += LatticeOverlap(bx, by, bz, level, dims);
    return;
  }
  if (bx >= lo[0] && bx + side_minus_1 <= hi[0] && by >= lo[1] &&
      by + side_minus_1 <= hi[1] && bz >= lo[2] &&
      bz + side_minus_1 <= hi[2]) {
    // Contained (in the box, hence in the lattice): all 8^level cells
    // count.
    const std::uint64_t cells = std::uint64_t{1} << (3 * level);
    EmitRun(*cursor, *cursor + cells, out);
    *cursor += cells;
    return;
  }
  // Straddles the box; a single cell (level 0) is fully classified by the
  // two tests above, so there is always room to descend.
  assert(level > 0);
  if (level == 1) {
    // Fast path for the dominant straddler class (side-2 blocks on the
    // box surface): the children are single cells, so classify them
    // inline instead of paying a recursive call per cell — on thin-slab
    // probes this is most of the walk.
    for (std::uint32_t p = 0; p < 8; ++p) {
      const std::uint8_t o = m.oct[state][p];
      const std::uint32_t cx = bx + (o & 1u);
      const std::uint32_t cy = by + ((o >> 1) & 1u);
      const std::uint32_t cz = bz + ((o >> 2) & 1u);
      if (cx >= lo[0] && cx <= hi[0] && cy >= lo[1] && cy <= hi[1] &&
          cz >= lo[2] && cz <= hi[2]) {
        EmitRun(*cursor, *cursor + 1, out);
        ++*cursor;
      } else {
        *cursor += cx < dims[0] && cy < dims[1] && cz < dims[2] ? 1 : 0;
      }
    }
    return;
  }
  const std::uint32_t half = 1u << (level - 1);
  for (std::uint32_t p = 0; p < 8; ++p) {
    const std::uint8_t o = m.oct[state][p];
    WalkBlocks(m, level - 1, bx + (o & 1u) * half,
               by + ((o >> 1) & 1u) * half, bz + ((o >> 2) & 1u) * half,
               m.next[state][p], lo, hi, dims, cursor, out);
  }
}

/// Pruning-only early-exit walk: find the first in-box CELL in key order
/// and return its coordinates, with no cursor accounting at all. Pruned
/// blocks cost only the disjointness test, and a fully-contained block
/// resolves by descending the curve's entry chain (octant p = 0 at every
/// level) straight to its first cell. Rank is monotone in key over lattice
/// cells, so this cell's rank is the first rank WalkBlocks emits.
bool FirstCellWalk(const HilbertMachine& m, int level, std::uint32_t bx,
                   std::uint32_t by, std::uint32_t bz, std::uint8_t state,
                   const CellVec& lo, const CellVec& hi, CellVec* cell) {
  const std::uint32_t side_minus_1 = (1u << level) - 1u;
  if (bx > hi[0] || bx + side_minus_1 < lo[0] || by > hi[1] ||
      by + side_minus_1 < lo[1] || bz > hi[2] || bz + side_minus_1 < lo[2]) {
    return false;
  }
  if (bx >= lo[0] && bx + side_minus_1 <= hi[0] && by >= lo[1] &&
      by + side_minus_1 <= hi[1] && bz >= lo[2] &&
      bz + side_minus_1 <= hi[2]) {
    // Contained: the block's first key belongs to the cell reached by
    // taking the curve's first octant at every remaining level.
    while (level > 0) {
      const std::uint32_t half = 1u << (level - 1);
      const std::uint8_t o = m.oct[state][0];
      bx += (o & 1u) * half;
      by += ((o >> 1) & 1u) * half;
      bz += ((o >> 2) & 1u) * half;
      state = m.next[state][0];
      --level;
    }
    *cell = {bx, by, bz};
    return true;
  }
  assert(level > 0);
  if (level == 1) {
    for (std::uint32_t p = 0; p < 8; ++p) {
      const std::uint8_t o = m.oct[state][p];
      const std::uint32_t cx = bx + (o & 1u);
      const std::uint32_t cy = by + ((o >> 1) & 1u);
      const std::uint32_t cz = bz + ((o >> 2) & 1u);
      if (cx >= lo[0] && cx <= hi[0] && cy >= lo[1] && cy <= hi[1] &&
          cz >= lo[2] && cz <= hi[2]) {
        *cell = {cx, cy, cz};
        return true;
      }
    }
    return false;
  }
  const std::uint32_t half = 1u << (level - 1);
  for (std::uint32_t p = 0; p < 8; ++p) {
    const std::uint8_t o = m.oct[state][p];
    if (FirstCellWalk(m, level - 1, bx + (o & 1u) * half,
                      by + ((o >> 1) & 1u) * half,
                      bz + ((o >> 2) & 1u) * half, m.next[state][p], lo, hi,
                      cell)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void CurveRangeRankRuns(CellLayout layout, const CellVec& lo,
                        const CellVec& hi, const CellVec& dims, int bits,
                        std::vector<CurveRun>* out) {
  out->clear();
  assert(lo[0] <= hi[0] && lo[1] <= hi[1] && lo[2] <= hi[2]);
  assert(hi[0] < dims[0] && hi[1] < dims[1] && hi[2] < dims[2]);
  std::uint64_t cursor = 0;
  switch (layout) {
    case CellLayout::kRowMajor: {
      // rank = (x * ny + y) * nz + z: every (x, y) column of the box is one
      // run [rank(x,y,lo_z), rank(x,y,hi_z)]; EmitRun fuses columns, planes
      // and ultimately the whole box when they happen to be adjacent
      // (full-depth columns in a full-height plane, etc).
      const std::uint64_t ny = dims[1];
      const std::uint64_t nz = dims[2];
      for (std::uint64_t x = lo[0]; x <= hi[0]; ++x) {
        for (std::uint64_t y = lo[1]; y <= hi[1]; ++y) {
          const std::uint64_t column = (x * ny + y) * nz;
          EmitRun(column + lo[2], column + hi[2] + 1, out);
        }
      }
      return;
    }
    case CellLayout::kMorton:
      WalkBlocks(GetMortonMachine(), bits, 0, 0, 0, /*state=*/0, lo, hi, dims,
                 &cursor, out);
      return;
    case CellLayout::kHilbert:
      WalkBlocks(GetHilbertMachine(), bits, 0, 0, 0, /*state=*/0, lo, hi,
                 dims, &cursor, out);
      return;
  }
}

CellVec CurveRangeFirstCell(CellLayout layout, const CellVec& lo,
                            const CellVec& hi, int bits) {
  assert(lo[0] <= hi[0] && lo[1] <= hi[1] && lo[2] <= hi[2]);
  CellVec cell = lo;  // Row-major rank is monotone per axis: min corner.
  if (layout != CellLayout::kRowMajor) {
    [[maybe_unused]] const bool found = FirstCellWalk(
        layout == CellLayout::kMorton ? GetMortonMachine()
                                      : GetHilbertMachine(),
        bits, 0, 0, 0, /*state=*/0, lo, hi, &cell);
    assert(found);  // A non-empty box always holds a first cell.
  }
  return cell;
}

}  // namespace simspatial::core
