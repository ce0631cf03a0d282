// Unit tests for the geometry kernel.

#include "common/geometry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "join/spatial_join.h"

namespace simspatial {
namespace {

TEST(Vec3Test, Arithmetic) {
  const Vec3 a(1, 2, 3);
  const Vec3 b(4, 5, 6);
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0f, Vec3(2, 4, 6));
  EXPECT_EQ(2.0f * a, Vec3(2, 4, 6));
  EXPECT_FLOAT_EQ(a.Dot(b), 32.0f);
  EXPECT_EQ(a.Cross(b), Vec3(-3, 6, -3));
  EXPECT_FLOAT_EQ(Vec3(3, 4, 0).Norm(), 5.0f);
}

TEST(Vec3Test, IndexingMatchesComponents) {
  Vec3 v(7, 8, 9);
  EXPECT_FLOAT_EQ(v[0], 7);
  EXPECT_FLOAT_EQ(v[1], 8);
  EXPECT_FLOAT_EQ(v[2], 9);
  v[1] = 42;
  EXPECT_FLOAT_EQ(v.y, 42);
}

TEST(AABBTest, DefaultIsEmpty) {
  const AABB b;
  EXPECT_TRUE(b.IsEmpty());
  EXPECT_FLOAT_EQ(b.Volume(), 0.0f);
  EXPECT_FALSE(b.Intersects(AABB(Vec3(0, 0, 0), Vec3(1, 1, 1))));
}

TEST(AABBTest, ExtendByPointYieldsPointBox) {
  AABB b;
  b.Extend(Vec3(1, 2, 3));
  EXPECT_FALSE(b.IsEmpty());
  EXPECT_EQ(b.min, Vec3(1, 2, 3));
  EXPECT_EQ(b.max, Vec3(1, 2, 3));
  EXPECT_TRUE(b.Contains(Vec3(1, 2, 3)));
}

TEST(AABBTest, VolumeSurfaceMargin) {
  const AABB b(Vec3(0, 0, 0), Vec3(2, 3, 4));
  EXPECT_FLOAT_EQ(b.Volume(), 24.0f);
  EXPECT_FLOAT_EQ(b.SurfaceArea(), 2 * (6 + 12 + 8));
  EXPECT_FLOAT_EQ(b.Margin(), 9.0f);
}

TEST(AABBTest, IntersectionCases) {
  const AABB a(Vec3(0, 0, 0), Vec3(2, 2, 2));
  EXPECT_TRUE(a.Intersects(AABB(Vec3(1, 1, 1), Vec3(3, 3, 3))));
  // Face contact counts (closed boxes).
  EXPECT_TRUE(a.Intersects(AABB(Vec3(2, 0, 0), Vec3(3, 2, 2))));
  EXPECT_FALSE(a.Intersects(AABB(Vec3(2.01f, 0, 0), Vec3(3, 2, 2))));
  // Disjoint on one axis only is enough.
  EXPECT_FALSE(a.Intersects(AABB(Vec3(0, 0, 5), Vec3(2, 2, 6))));
}

TEST(AABBTest, Containment) {
  const AABB outer(Vec3(0, 0, 0), Vec3(10, 10, 10));
  EXPECT_TRUE(outer.Contains(AABB(Vec3(1, 1, 1), Vec3(9, 9, 9))));
  EXPECT_TRUE(outer.Contains(outer));
  EXPECT_FALSE(outer.Contains(AABB(Vec3(1, 1, 1), Vec3(11, 9, 9))));
  EXPECT_FALSE(outer.Contains(AABB()));  // Empty box is never contained.
}

TEST(AABBTest, UnionAndIntersection) {
  const AABB a(Vec3(0, 0, 0), Vec3(2, 2, 2));
  const AABB b(Vec3(1, 1, 1), Vec3(4, 4, 4));
  const AABB u = AABB::Union(a, b);
  EXPECT_EQ(u.min, Vec3(0, 0, 0));
  EXPECT_EQ(u.max, Vec3(4, 4, 4));
  const AABB i = AABB::Intersection(a, b);
  EXPECT_EQ(i.min, Vec3(1, 1, 1));
  EXPECT_EQ(i.max, Vec3(2, 2, 2));
  EXPECT_TRUE(
      AABB::Intersection(a, AABB(Vec3(5, 5, 5), Vec3(6, 6, 6))).IsEmpty());
}

TEST(AABBTest, DistanceToPoint) {
  const AABB b(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_FLOAT_EQ(b.SquaredDistanceTo(Vec3(0.5f, 0.5f, 0.5f)), 0.0f);
  EXPECT_FLOAT_EQ(b.SquaredDistanceTo(Vec3(2, 0.5f, 0.5f)), 1.0f);
  EXPECT_FLOAT_EQ(b.SquaredDistanceTo(Vec3(2, 2, 0.5f)), 2.0f);
  EXPECT_FLOAT_EQ(b.SquaredDistanceTo(Vec3(2, 2, 2)), 3.0f);
}

TEST(AABBTest, DistanceToBox) {
  const AABB a(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_FLOAT_EQ(a.SquaredDistanceTo(AABB(Vec3(3, 0, 0), Vec3(4, 1, 1))),
                  4.0f);
  EXPECT_FLOAT_EQ(
      a.SquaredDistanceTo(AABB(Vec3(0.5f, 0.5f, 0.5f), Vec3(2, 2, 2))), 0.0f);
}

// The std::max({below, 0, above}) form both SquaredDistanceTo overloads
// had before AxisGap, kept as the reference it must match bit for bit.
float ReferenceSquaredDistance(const AABB& b, const Vec3& p) {
  const float dx = std::max({b.min.x - p.x, 0.0f, p.x - b.max.x});
  const float dy = std::max({b.min.y - p.y, 0.0f, p.y - b.max.y});
  const float dz = std::max({b.min.z - p.z, 0.0f, p.z - b.max.z});
  return dx * dx + dy * dy + dz * dz;
}
float ReferenceSquaredDistance(const AABB& a, const AABB& o) {
  const float dx = std::max({a.min.x - o.max.x, 0.0f, o.min.x - a.max.x});
  const float dy = std::max({a.min.y - o.max.y, 0.0f, o.min.y - a.max.y});
  const float dz = std::max({a.min.z - o.max.z, 0.0f, o.min.z - a.max.z});
  return dx * dx + dy * dy + dz * dz;
}

std::uint32_t Bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// A coordinate drawn from finite values of every magnitude, +-0 and
/// +-inf (a box may be inverted; inf - inf yields NaN mid-expression).
float DistanceTestCoord(Rng* rng) {
  const float inf = std::numeric_limits<float>::infinity();
  switch (rng->NextBelow(10)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return inf;
    case 3: return -inf;
    case 4: return (rng->NextFloat() - 0.5f) * 6.0f * 1e38f;
    case 5: return (rng->NextFloat() - 0.5f) * 2e-30f;
    default: return rng->Uniform(-20.0f, 20.0f);
  }
}

Vec3 DistanceTestPoint(Rng* rng) {
  return Vec3(DistanceTestCoord(rng), DistanceTestCoord(rng),
              DistanceTestCoord(rng));
}

TEST(AABBTest, BranchFreeDistanceMatchesReferenceBitForBit) {
  Rng rng(79);
  for (int i = 0; i < 20000; ++i) {
    const AABB a(DistanceTestPoint(&rng), DistanceTestPoint(&rng));
    const AABB b(DistanceTestPoint(&rng), DistanceTestPoint(&rng));
    const Vec3 p = DistanceTestPoint(&rng);
    ASSERT_EQ(Bits(a.SquaredDistanceTo(p)),
              Bits(ReferenceSquaredDistance(a, p)))
        << a << " " << p;
    ASSERT_EQ(Bits(a.SquaredDistanceTo(b)),
              Bits(ReferenceSquaredDistance(a, b)))
        << a << " " << b;
  }
  // Ordinary boxes and points, where nearly every pair is finite.
  const AABB u(Vec3(-50, -50, -50), Vec3(50, 50, 50));
  for (int i = 0; i < 20000; ++i) {
    const AABB a = AABB::FromCenterHalfExtent(rng.PointIn(u),
                                              rng.Uniform(0.0f, 9.0f));
    const AABB b = AABB::FromCenterHalfExtent(rng.PointIn(u),
                                              rng.Uniform(0.0f, 9.0f));
    const Vec3 p = rng.PointIn(u);
    ASSERT_EQ(Bits(a.SquaredDistanceTo(p)),
              Bits(ReferenceSquaredDistance(a, p)));
    ASSERT_EQ(Bits(a.SquaredDistanceTo(b)),
              Bits(ReferenceSquaredDistance(a, b)));
  }
}

// NaN rule: per axis the distance is max(max(below, 0), above) with
// std::max's comparisons, so a NaN `below` term (box.min - p; a.min -
// o.max) propagates to a NaN distance, while a NaN `above` term (p -
// box.max; o.min - a.max) alone is dropped and the axis counts as
// overlapping. A NaN probe coordinate enters both terms: NaN distance.
TEST(AABBTest, NaNCoordinatesFollowTheReferenceRule) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const AABB unit(Vec3(0, 0, 0), Vec3(1, 1, 1));
  EXPECT_TRUE(std::isnan(unit.SquaredDistanceTo(Vec3(nan, 0.5f, 0.5f))));
  EXPECT_TRUE(std::isnan(unit.SquaredDistanceTo(Vec3(5, 5, nan))));
  const AABB nan_min(Vec3(nan, 0, 0), Vec3(1, 1, 1));
  EXPECT_TRUE(std::isnan(nan_min.SquaredDistanceTo(Vec3(5, 0.5f, 0.5f))));
  const AABB nan_max(Vec3(0, 0, 0), Vec3(nan, 1, 1));
  EXPECT_EQ(nan_max.SquaredDistanceTo(Vec3(5, 0.5f, 0.5f)), 0.0f);
  EXPECT_EQ(nan_max.SquaredDistanceTo(Vec3(-2, 0.5f, 0.5f)), 4.0f);
  // Box-box: o.max enters `below`, o.min enters `above`.
  EXPECT_TRUE(std::isnan(unit.SquaredDistanceTo(nan_max.Translated(
      Vec3(5, 0, 0)))));
  EXPECT_EQ(unit.SquaredDistanceTo(AABB(Vec3(nan, 0, 0), Vec3(9, 1, 1))),
            0.0f);
  EXPECT_TRUE(std::isnan(nan_min.SquaredDistanceTo(unit)));
  // And the reference agrees on every one of these (bits included, since
  // the NaN travels through the same operations).
  const Vec3 points[] = {Vec3(nan, 0.5f, 0.5f), Vec3(5, 5, nan),
                         Vec3(5, 0.5f, 0.5f), Vec3(-2, 0.5f, 0.5f)};
  for (const AABB& b : {unit, nan_min, nan_max}) {
    for (const Vec3& p : points) {
      EXPECT_EQ(Bits(b.SquaredDistanceTo(p)),
                Bits(ReferenceSquaredDistance(b, p)))
          << b << " " << p;
    }
    for (const AABB& o : {unit, nan_min, nan_max}) {
      EXPECT_EQ(Bits(b.SquaredDistanceTo(o)),
                Bits(ReferenceSquaredDistance(b, o)))
          << b << " " << o;
    }
  }
}

TEST(AABBTest, InflatedAndTranslated) {
  const AABB b(Vec3(1, 1, 1), Vec3(2, 2, 2));
  const AABB g = b.Inflated(0.5f);
  EXPECT_EQ(g.min, Vec3(0.5f, 0.5f, 0.5f));
  EXPECT_EQ(g.max, Vec3(2.5f, 2.5f, 2.5f));
  const AABB t = b.Translated(Vec3(1, 0, -1));
  EXPECT_EQ(t.min, Vec3(2, 1, 0));
  EXPECT_EQ(t.max, Vec3(3, 2, 1));
}

// ClampedCellCoord must agree with "cast, then clamp" wherever that cast is
// defined, and saturate (NaN to `lo`) where it is not.
TEST(ClampedCellCoordTest, MatchesClampedCastAndSaturates) {
  Rng rng(71);
  for (int i = 0; i < 10000; ++i) {
    const float t = rng.Uniform(-300.0f, 300.0f);
    const auto cast = static_cast<std::int64_t>(t);
    EXPECT_EQ(ClampedCellCoord(t, 0, 99),
              std::clamp<std::int64_t>(cast, 0, 99))
        << t;
    EXPECT_EQ(ClampedCellCoord(t, -50, 50),
              std::clamp<std::int64_t>(cast, -50, 50))
        << t;
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  EXPECT_EQ(ClampedCellCoord(std::nanf(""), 0, 99), 0);
  EXPECT_EQ(ClampedCellCoord(std::nanf(""), -7, 99), -7);
  EXPECT_EQ(ClampedCellCoord(inf, 0, 99), 99);
  EXPECT_EQ(ClampedCellCoord(-inf, 0, 99), 0);
  EXPECT_EQ(ClampedCellCoord(big, -7, 99), 99);
  EXPECT_EQ(ClampedCellCoord(-big, -7, 99), -7);
  EXPECT_EQ(ClampedCellCoord(98.999f, 0, 99), 98);
  EXPECT_EQ(ClampedCellCoord(-0.5f, 0, 99), 0);
}

TEST(SegmentDistanceTest, PointSegment) {
  const Vec3 a(0, 0, 0);
  const Vec3 b(10, 0, 0);
  EXPECT_FLOAT_EQ(SquaredDistancePointSegment(Vec3(5, 3, 0), a, b), 9.0f);
  EXPECT_FLOAT_EQ(SquaredDistancePointSegment(Vec3(-3, 4, 0), a, b), 25.0f);
  EXPECT_FLOAT_EQ(SquaredDistancePointSegment(Vec3(13, 4, 0), a, b), 25.0f);
  // Degenerate segment.
  EXPECT_FLOAT_EQ(SquaredDistancePointSegment(Vec3(1, 0, 0), a, a), 1.0f);
}

TEST(SegmentDistanceTest, SegmentSegment) {
  // Perpendicular skew segments, closest at midpoints, distance 2.
  EXPECT_NEAR(SquaredDistanceSegmentSegment(Vec3(-1, 0, 0), Vec3(1, 0, 0),
                                            Vec3(0, -1, 2), Vec3(0, 1, 2)),
              4.0f, 1e-5f);
  // Intersecting segments.
  EXPECT_NEAR(SquaredDistanceSegmentSegment(Vec3(-1, 0, 0), Vec3(1, 0, 0),
                                            Vec3(0, -1, 0), Vec3(0, 1, 0)),
              0.0f, 1e-6f);
  // Parallel segments offset by 3.
  EXPECT_NEAR(SquaredDistanceSegmentSegment(Vec3(0, 0, 0), Vec3(5, 0, 0),
                                            Vec3(0, 3, 0), Vec3(5, 3, 0)),
              9.0f, 1e-5f);
  // Endpoint-to-endpoint case.
  EXPECT_NEAR(SquaredDistanceSegmentSegment(Vec3(0, 0, 0), Vec3(1, 0, 0),
                                            Vec3(3, 0, 0), Vec3(5, 0, 0)),
              4.0f, 1e-5f);
  // Both degenerate.
  EXPECT_FLOAT_EQ(SquaredDistanceSegmentSegment(Vec3(0, 0, 0), Vec3(0, 0, 0),
                                                Vec3(0, 0, 7), Vec3(0, 0, 7)),
                  49.0f);
}

TEST(CapsuleTest, BoundsContainDistance) {
  const Capsule c(Vec3(0, 0, 0), Vec3(10, 0, 0), 1.0f);
  const AABB b = c.Bounds();
  EXPECT_EQ(b.min, Vec3(-1, -1, -1));
  EXPECT_EQ(b.max, Vec3(11, 1, 1));
  EXPECT_TRUE(CapsuleContains(c, Vec3(5, 0.9f, 0)));
  EXPECT_FALSE(CapsuleContains(c, Vec3(5, 1.1f, 0)));
  EXPECT_TRUE(CapsuleContains(c, Vec3(-0.7f, 0, 0)));  // Cap region.
}

TEST(CapsuleTest, WithinDistancePredicate) {
  const Capsule a(Vec3(0, 0, 0), Vec3(10, 0, 0), 0.5f);
  const Capsule b(Vec3(0, 2, 0), Vec3(10, 2, 0), 0.5f);
  // Gap between surfaces = 2 - 0.5 - 0.5 = 1.
  EXPECT_FALSE(CapsulesWithinDistance(a, b, 0.9f));
  EXPECT_TRUE(CapsulesWithinDistance(a, b, 1.1f));
  EXPECT_TRUE(CapsulesWithinDistance(a, b, 1.0f));
}

TEST(SegmentBoxDistanceTest, KnownConfigurations) {
  const AABB box(Vec3(0, 0, 0), Vec3(2, 2, 2));
  // Segment passing through the box.
  EXPECT_NEAR(SquaredDistanceSegmentAABB(Vec3(-1, 1, 1), Vec3(3, 1, 1), box),
              0.0f, 1e-5f);
  // Segment parallel to a face at distance 3.
  EXPECT_NEAR(SquaredDistanceSegmentAABB(Vec3(0, 5, 1), Vec3(2, 5, 1), box),
              9.0f, 1e-3f);
  // Closest point in the segment interior, diagonal approach to an edge.
  EXPECT_NEAR(
      SquaredDistanceSegmentAABB(Vec3(3, 3, -2), Vec3(3, 3, 4), box),
      2.0f, 1e-3f);
  // Degenerate segment = point.
  EXPECT_NEAR(SquaredDistanceSegmentAABB(Vec3(4, 1, 1), Vec3(4, 1, 1), box),
              4.0f, 1e-4f);
}

TEST(SegmentBoxDistanceTest, MatchesSampledMinimum) {
  // Property: the ternary-search distance matches a dense parameter sweep.
  Rng rng(123);
  const AABB box(Vec3(0, 0, 0), Vec3(1, 2, 3));
  const AABB region(Vec3(-3, -3, -3), Vec3(4, 5, 6));
  for (int iter = 0; iter < 200; ++iter) {
    const Vec3 a = rng.PointIn(region);
    const Vec3 b = rng.PointIn(region);
    const float got = SquaredDistanceSegmentAABB(a, b, box);
    float want = std::numeric_limits<float>::max();
    for (int i = 0; i <= 200; ++i) {
      const float t = i / 200.0f;
      want = std::min(want, box.SquaredDistanceTo(a + (b - a) * t));
    }
    EXPECT_NEAR(got, want, std::max(1e-4f, want * 0.02f)) << "iter " << iter;
  }
}

TEST(CapsuleBoxTest, IntersectionCases) {
  const AABB box(Vec3(0, 0, 0), Vec3(4, 4, 4));
  // Fully inside.
  EXPECT_TRUE(CapsuleIntersectsAABB(
      Capsule(Vec3(1, 1, 1), Vec3(3, 3, 3), 0.2f), box));
  // Crossing through.
  EXPECT_TRUE(CapsuleIntersectsAABB(
      Capsule(Vec3(-2, 2, 2), Vec3(6, 2, 2), 0.1f), box));
  // Touching via radius only.
  EXPECT_TRUE(CapsuleIntersectsAABB(
      Capsule(Vec3(5, 2, 2), Vec3(7, 2, 2), 1.05f), box));
  // Near miss.
  EXPECT_FALSE(CapsuleIntersectsAABB(
      Capsule(Vec3(5.2f, 2, 2), Vec3(7, 2, 2), 1.0f), box));
  // Grazing an edge diagonally (interior closest point).
  EXPECT_TRUE(CapsuleIntersectsAABB(
      Capsule(Vec3(5, 5, -2), Vec3(5, 5, 6), 1.5f), box));
  EXPECT_FALSE(CapsuleIntersectsAABB(
      Capsule(Vec3(5, 5, -2), Vec3(5, 5, 6), 1.3f), box));
}

TEST(CapsuleBoxTest, ConsistentWithCapsuleBounds) {
  // If the capsule's AABB misses the box, the capsule must miss it too.
  Rng rng(321);
  const AABB box(Vec3(2, 2, 2), Vec3(5, 5, 5));
  const AABB region(Vec3(-2, -2, -2), Vec3(9, 9, 9));
  for (int iter = 0; iter < 300; ++iter) {
    const Capsule c(rng.PointIn(region), rng.PointIn(region),
                    rng.Uniform(0.05f, 0.8f));
    const bool exact = CapsuleIntersectsAABB(c, box);
    if (exact) {
      EXPECT_TRUE(c.Bounds().Intersects(box)) << "iter " << iter;
    }
  }
}

TEST(TetrahedronTest, VolumeAndContainment) {
  const Tetrahedron t{{Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0),
                       Vec3(0, 0, 1)}};
  EXPECT_NEAR(t.SignedVolume(), 1.0f / 6.0f, 1e-7f);
  EXPECT_TRUE(t.Contains(Vec3(0.1f, 0.1f, 0.1f)));
  EXPECT_TRUE(t.Contains(Vec3(0, 0, 0)));           // Vertex.
  EXPECT_TRUE(t.Contains(Vec3(0.25f, 0.25f, 0.25f)));
  EXPECT_FALSE(t.Contains(Vec3(0.5f, 0.5f, 0.5f)));  // Outside hypotenuse.
  EXPECT_FALSE(t.Contains(Vec3(-0.1f, 0.1f, 0.1f)));
}

TEST(TetrahedronTest, NegativeOrientationStillWorks) {
  const Tetrahedron t{{Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(1, 0, 0),
                       Vec3(0, 0, 1)}};
  EXPECT_LT(t.SignedVolume(), 0.0f);
  EXPECT_TRUE(t.Contains(Vec3(0.1f, 0.1f, 0.1f)));
  EXPECT_FALSE(t.Contains(Vec3(1, 1, 1)));
}

TEST(TriangleBoxTest, BasicCases) {
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  // Triangle fully inside.
  EXPECT_TRUE(TriangleIntersectsAABB(Vec3(0.2f, 0.2f, 0.2f),
                                     Vec3(0.8f, 0.2f, 0.2f),
                                     Vec3(0.2f, 0.8f, 0.2f), box));
  // Triangle fully outside (beyond +x).
  EXPECT_FALSE(TriangleIntersectsAABB(Vec3(2, 0, 0), Vec3(3, 0, 0),
                                      Vec3(2, 1, 0), box));
  // Large triangle slicing through the box without any vertex inside.
  EXPECT_TRUE(TriangleIntersectsAABB(Vec3(-5, 0.5f, -5), Vec3(5, 0.5f, -5),
                                     Vec3(0, 0.5f, 10), box));
  // Plane passes near but the triangle misses the corner (SAT axis case).
  EXPECT_FALSE(TriangleIntersectsAABB(Vec3(2, 2, 0), Vec3(3, 1, 0),
                                      Vec3(2.5f, 2.5f, 1), box));
}

TEST(TriangleBoxTest, MatchesSamplingOnRandomTriangles) {
  // Property test: SAT result must agree with a dense point-sample check
  // whenever the sampling finds a hit (sampling can miss, SAT cannot).
  Rng rng(99);
  const AABB box(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const AABB region(Vec3(-2, -2, -2), Vec3(3, 3, 3));
  for (int iter = 0; iter < 300; ++iter) {
    const Vec3 a = rng.PointIn(region);
    const Vec3 b = rng.PointIn(region);
    const Vec3 c = rng.PointIn(region);
    const bool sat = TriangleIntersectsAABB(a, b, c, box);
    bool sampled = false;
    for (int i = 0; i <= 20 && !sampled; ++i) {
      for (int j = 0; i + j <= 20 && !sampled; ++j) {
        const float u = i / 20.0f;
        const float v = j / 20.0f;
        const Vec3 p = a * (1 - u - v) + b * u + c * v;
        sampled = box.Contains(p);
      }
    }
    if (sampled) EXPECT_TRUE(sat) << "iter " << iter;
  }
}

TEST(CellCodecTest, IntegerCodecsAreInjectiveOnTheLattice) {
  // The MemGrid cell layout relies on distinct cells getting distinct
  // curve keys; sweep a full 8^3 block plus the axis extremes.
  std::vector<std::uint64_t> morton, hilbert;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      for (std::uint32_t z = 0; z < 8; ++z) {
        morton.push_back(MortonEncodeCell(x, y, z));
        hilbert.push_back(HilbertEncodeCell(x, y, z));
      }
    }
  }
  std::sort(morton.begin(), morton.end());
  std::sort(hilbert.begin(), hilbert.end());
  EXPECT_EQ(std::unique(morton.begin(), morton.end()) - morton.begin(), 512);
  EXPECT_EQ(std::unique(hilbert.begin(), hilbert.end()) - hilbert.begin(),
            512);
  // Morton of a lattice point is the classic bit interleave: x in the
  // least-significant slot.
  EXPECT_EQ(MortonEncodeCell(1, 0, 0), 1u);
  EXPECT_EQ(MortonEncodeCell(0, 1, 0), 2u);
  EXPECT_EQ(MortonEncodeCell(0, 0, 1), 4u);
  EXPECT_EQ(MortonEncodeCell(0, 0, 0), 0u);
  EXPECT_EQ(HilbertEncodeCell(0, 0, 0), 0u);
}

TEST(CellCodecTest, PositionCodecsQuantizeToCellCodecs) {
  // The Vec3 overloads must be the integer codecs applied to the 21-bit
  // quantised lattice — the property that lets MemGrid mix both.
  const AABB u(Vec3(0, 0, 0), Vec3(100, 100, 100));
  constexpr float kScale = 2097151.0f;  // 2^21 - 1, as in Quantize21.
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const Vec3 p = rng.PointIn(u);
    const auto q = [&](float v) {
      return static_cast<std::uint32_t>(v / 100.0f * kScale);
    };
    EXPECT_EQ(MortonEncode(p, u), MortonEncodeCell(q(p.x), q(p.y), q(p.z)));
    EXPECT_EQ(HilbertEncode(p, u),
              HilbertEncodeCell(q(p.x), q(p.y), q(p.z)));
  }
}

TEST(CellCodecTest, SizedHilbertIsABijectionOntoTheCube) {
  // With `bits` sized to the lattice, the codec is a bijection onto
  // [0, 2^(3*bits)) — what lets MemGrid pack (key << 32 | cell) and radix
  // sort by the key bytes.
  std::vector<std::uint64_t> keys;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      for (std::uint32_t z = 0; z < 8; ++z) {
        const std::uint64_t k = HilbertEncodeCell(x, y, z, /*bits=*/3);
        EXPECT_LT(k, 512u);
        keys.push_back(k);
      }
    }
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], i) << "keys must cover 0..511 exactly once";
  }
}

TEST(CellCodecTest, HilbertConsecutiveKeysAreLatticeNeighbours) {
  // Defining property of the Hilbert curve (and what makes it the
  // tightest MemGrid layout): sort a full power-of-two block by key and
  // every consecutive pair differs by exactly one unit step on one axis.
  struct Cell {
    std::uint64_t key;
    std::uint32_t x, y, z;
  };
  std::vector<Cell> cells;
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      for (std::uint32_t z = 0; z < 8; ++z) {
        cells.push_back({HilbertEncodeCell(x, y, z), x, y, z});
      }
    }
  }
  std::sort(cells.begin(), cells.end(),
            [](const Cell& a, const Cell& b) { return a.key < b.key; });
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const int manhattan =
        std::abs(static_cast<int>(cells[i].x) -
                 static_cast<int>(cells[i - 1].x)) +
        std::abs(static_cast<int>(cells[i].y) -
                 static_cast<int>(cells[i - 1].y)) +
        std::abs(static_cast<int>(cells[i].z) -
                 static_cast<int>(cells[i - 1].z));
    EXPECT_EQ(manhattan, 1) << "hop " << i;
  }
}

TEST(MortonTest, OrderRespectsLocality) {
  const AABB u(Vec3(0, 0, 0), Vec3(100, 100, 100));
  const auto a = MortonEncode(Vec3(1, 1, 1), u);
  const auto b = MortonEncode(Vec3(1.5f, 1, 1), u);
  const auto far = MortonEncode(Vec3(99, 99, 99), u);
  EXPECT_LT(a, far);
  EXPECT_LT(b, far);
  // Origin maps to 0; the far corner maps to the max 63-bit pattern.
  EXPECT_EQ(MortonEncode(Vec3(0, 0, 0), u), 0u);
  EXPECT_EQ(MortonEncode(Vec3(100, 100, 100), u), 0x7fffffffffffffffULL);
}

TEST(MortonTest, DegenerateUniverse) {
  const AABB flat(Vec3(0, 0, 0), Vec3(0, 0, 0));
  EXPECT_EQ(MortonEncode(Vec3(0, 0, 0), flat), 0u);
}

TEST(HilbertTest, KeysAreDistinctAndDeterministic) {
  const AABB u(Vec3(0, 0, 0), Vec3(100, 100, 100));
  Rng rng(4);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) {
    const Vec3 p = rng.PointIn(u);
    const auto k = HilbertEncode(p, u);
    EXPECT_EQ(k, HilbertEncode(p, u));
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()) - keys.begin(), 500);
}

TEST(HilbertTest, CurveHasBetterLocalityThanRandomOrder) {
  // Consecutive keys along the Hilbert order must correspond to nearby
  // points: mean hop distance along the sorted order should be a small
  // fraction of the mean distance between randomly ordered points.
  const AABB u(Vec3(0, 0, 0), Vec3(100, 100, 100));
  Rng rng(5);
  std::vector<Vec3> pts;
  for (int i = 0; i < 4000; ++i) pts.push_back(rng.PointIn(u));

  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    order.emplace_back(HilbertEncode(pts[i], u), i);
  }
  std::sort(order.begin(), order.end());
  double hilbert_hop = 0;
  double random_hop = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    hilbert_hop += Distance(pts[order[i - 1].second], pts[order[i].second]);
    random_hop += Distance(pts[i - 1], pts[i]);
  }
  EXPECT_LT(hilbert_hop, random_hop * 0.2);
}

TEST(HilbertTest, ExtremesMapToCurveEnds) {
  const AABB u(Vec3(0, 0, 0), Vec3(1, 1, 1));
  // The curve starts at the origin corner.
  EXPECT_EQ(HilbertEncode(Vec3(0, 0, 0), u), 0u);
  // All keys fit in 63 bits.
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(HilbertEncode(rng.PointIn(u), u), 1ULL << 63);
  }
}

// --- Batched AABB kernel -----------------------------------------------------

// A pool of NaN-free boxes stressing every comparison edge the kernel
// evaluates: ordinary overlapping/disjoint volumes, zero-extent boxes
// (min == max on one or all axes), inverted boxes (min > max — the empty
// convention and the serving layer's tombstones), the default empty
// sentinel, and huge-magnitude but finite coordinates.
std::vector<AABB> BatchKernelBoxPool() {
  std::vector<AABB> pool;
  Rng rng(77);
  const AABB u(Vec3(-50, -50, -50), Vec3(50, 50, 50));
  for (int i = 0; i < 200; ++i) {
    const Vec3 c = rng.PointIn(u);
    pool.push_back(AABB::FromCenterHalfExtents(
        c, Vec3(rng.Uniform(0.0f, 8.0f), rng.Uniform(0.0f, 8.0f),
                rng.Uniform(0.0f, 8.0f))));
  }
  for (int i = 0; i < 50; ++i) {
    pool.push_back(AABB::FromPoint(rng.PointIn(u)));  // Zero extent.
  }
  for (int i = 0; i < 50; ++i) {  // Inverted on one or more axes.
    AABB b = pool[rng.NextBelow(pool.size())];
    const int axis = static_cast<int>(rng.NextBelow(3));
    std::swap(b.min[axis], b.max[axis]);
    b.min[axis] += 1.0f;  // Force min > max even for zero-extent sources.
    pool.push_back(b);
  }
  pool.push_back(AABB());  // Default empty sentinel (the padding lane).
  pool.push_back(AABB(Vec3(-3e37f, -3e37f, -3e37f), Vec3(3e37f, 3e37f, 3e37f)));
  return pool;
}

TEST(BoxBatchTest, IntersectAndContainsMatchScalarBitForBit) {
  const std::vector<AABB> pool = BatchKernelBoxPool();
  Rng rng(78);
  for (int trial = 0; trial < 500; ++trial) {
    BoxBatch batch;
    for (std::uint32_t lane = 0; lane < kBoxBatchWidth; ++lane) {
      batch.SetLane(lane, pool[rng.NextBelow(pool.size())]);
    }
    const AABB query = pool[rng.NextBelow(pool.size())];
    EXPECT_EQ(BoxBatchIntersect(batch, query),
              BoxBatchIntersectScalar(batch, query))
        << "trial " << trial;
    EXPECT_EQ(BoxBatchContains(batch, query),
              BoxBatchContainsScalar(batch, query))
        << "trial " << trial;
  }
}

TEST(BoxBatchTest, LoadPadsTailLanesWithTheEmptyBox) {
  const AABB everything(Vec3(-1e30f, -1e30f, -1e30f),
                        Vec3(1e30f, 1e30f, 1e30f));
  const AABB boxes[3] = {AABB(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                         AABB::FromPoint(Vec3(2, 2, 2)),
                         AABB(Vec3(-4, -4, -4), Vec3(-3, -3, -3))};
  BoxBatch batch;
  BoxBatchLoad(boxes, sizeof(AABB), 3, &batch);
  // Only the three loaded lanes can hit, even against an all-covering
  // query: padding lanes hold the empty box.
  EXPECT_EQ(BoxBatchIntersect(batch, everything), 0b111u);
  EXPECT_EQ(BoxBatchContains(batch, everything), 0b111u);
  for (std::uint32_t lane = 3; lane < kBoxBatchWidth; ++lane) {
    EXPECT_TRUE(batch.Lane(lane).IsEmpty());
  }
}

TEST(BoxBatchTest, StridedLoadReadsBoxesEmbeddedInRecords) {
  struct Record {
    AABB box;
    std::uint32_t id;
  };
  std::vector<Record> records;
  Rng rng(79);
  const AABB u(Vec3(0, 0, 0), Vec3(10, 10, 10));
  for (std::uint32_t i = 0; i < kBoxBatchWidth; ++i) {
    records.push_back(
        {AABB::FromCenterHalfExtent(rng.PointIn(u), rng.Uniform(0.1f, 2.0f)),
         i});
  }
  BoxBatch batch;
  BoxBatchLoad(&records[0].box, sizeof(Record), kBoxBatchWidth, &batch);
  const AABB query = AABB::FromCenterHalfExtent(rng.PointIn(u), 3.0f);
  std::uint32_t want = 0;
  for (std::uint32_t i = 0; i < kBoxBatchWidth; ++i) {
    EXPECT_EQ(batch.Lane(i), records[i].box);
    want |= static_cast<std::uint32_t>(records[i].box.Intersects(query)) << i;
  }
  EXPECT_EQ(BoxBatchIntersect(batch, query), want);
}

// --- Span pair kernel --------------------------------------------------------

/// A coordinate for the span-kernel pool: ordinary values, +-0, +-inf,
/// NaN, denormals and huge magnitudes.
float SpanKernelCoord(Rng* rng) {
  const float inf = std::numeric_limits<float>::infinity();
  switch (rng->NextBelow(12)) {
    case 0: return -0.0f;
    case 1: return inf;
    case 2: return -inf;
    case 3: return std::numeric_limits<float>::quiet_NaN();
    case 4: return (rng->NextFloat() - 0.5f) * 2e-39f;  // Denormal.
    case 5: return (rng->NextFloat() - 0.5f) * 6.0f * 1e38f;
    default: return rng->Uniform(-4.0f, 4.0f);
  }
}

/// The batch kernel's pool (ordinary, zero-extent, inverted and empty
/// boxes), plus boxes with the special coordinates above, boxes near the
/// origin so that many pairs match, and an all-covering box.
std::vector<AABB> SpanKernelBoxPool() {
  std::vector<AABB> pool = BatchKernelBoxPool();
  Rng rng(80);
  for (int i = 0; i < 300; ++i) {
    const Vec3 lo(SpanKernelCoord(&rng), SpanKernelCoord(&rng),
                  SpanKernelCoord(&rng));
    const Vec3 hi(SpanKernelCoord(&rng), SpanKernelCoord(&rng),
                  SpanKernelCoord(&rng));
    pool.emplace_back(lo, rng.NextBelow(4) == 0 ? lo : hi);
  }
  const AABB near(Vec3(-3, -3, -3), Vec3(3, 3, 3));
  for (int i = 0; i < 300; ++i) {
    pool.push_back(AABB::FromCenterHalfExtent(rng.PointIn(near),
                                              rng.Uniform(0.0f, 1.0f)));
  }
  const float inf = std::numeric_limits<float>::infinity();
  pool.emplace_back(Vec3(-inf, -inf, -inf), Vec3(inf, inf, inf));
  return pool;
}

/// `boxes` as padded structure-of-arrays columns.
struct TestColumns {
  std::array<std::vector<float>, 6> v;

  explicit TestColumns(const std::vector<AABB>& boxes) {
    for (const AABB& b : boxes) {
      for (int a = 0; a < 3; ++a) {
        v[a].push_back(b.min[a]);
        v[3 + a].push_back(b.max[a]);
      }
    }
  }
  BoxColumns view() const {
    return {v[0].data(), v[1].data(), v[2].data(),
            v[3].data(), v[4].data(), v[5].data()};
  }
};

/// Checks PairKernel<kProbeFirst> against scalar PairMatches over every
/// lane of every load and every span of length 0..9 at every start.
template <bool kProbeFirst>
void ExpectPairKernelMatchesScalar(const std::vector<AABB>& boxes,
                                   const std::vector<ElementId>& ids,
                                   std::size_t n, const AABB& probe,
                                   float eps) {
  const auto scalar = [&](std::size_t j) {
    return kProbeFirst ? join::PairMatches(probe, boxes[j], eps)
                       : join::PairMatches(boxes[j], probe, eps);
  };
  const TestColumns columns(boxes);
  const BoxColumns c = columns.view();
  const PairKernel<kProbeFirst> kernel(probe, eps);
  for (std::size_t at = 0; at + kPairLanes <= boxes.size(); ++at) {
    const std::uint32_t mask = kernel.Match(c, at);
    for (std::uint32_t l = 0; l < kPairLanes; ++l) {
      ASSERT_EQ((mask >> l) & 1u, scalar(at + l) ? 1u : 0u)
          << "probe " << probe << " box " << boxes[at + l] << " eps " << eps
          << " probe_first " << kProbeFirst;
    }
  }
  for (std::size_t begin = 0; begin < n; ++begin) {
    for (std::size_t len = 0; len <= 9 && begin + len <= n; ++len) {
      std::vector<ElementId> got;
      kernel.Scan(c, begin, begin + len,
                  [&](std::size_t j) { got.push_back(ids[j]); });
      std::vector<ElementId> want;
      for (std::size_t j = begin; j < begin + len; ++j) {
        if (scalar(j)) want.push_back(ids[j]);
      }
      ASSERT_EQ(got, want) << "span [" << begin << ", " << begin + len
                           << ") eps " << eps << " probe " << probe;
    }
  }
}

TEST(PairKernelTest, MatchesPairMatchesBitForBit) {
  const std::vector<AABB> pool = SpanKernelBoxPool();
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // 1e-20 squares to a denormal; NaN and negative eps mean intersection.
  const float epsilons[] = {0.0f, -1.0f, 1e-20f, 0.5f, 4.0f, inf, nan};
  Rng rng(81);
  constexpr std::size_t kSpan = 16;
  for (int trial = 0; trial < 150; ++trial) {
    std::vector<AABB> boxes;
    std::vector<ElementId> ids;
    for (std::size_t j = 0; j < kSpan; ++j) {
      boxes.push_back(pool[rng.NextBelow(pool.size())]);
      ids.push_back(
          static_cast<ElementId>(0x80000000u + rng.NextBelow(1u << 30)));
    }
    // The padding the kernel may read past the last span: all-covering
    // boxes, which match nearly every probe unless masked off.
    boxes.resize(kSpan + kPairLanes - 1, pool.back());
    const AABB probe = pool[rng.NextBelow(pool.size())];
    for (const float eps : epsilons) {
      ExpectPairKernelMatchesScalar<true>(boxes, ids, kSpan, probe, eps);
      ExpectPairKernelMatchesScalar<false>(boxes, ids, kSpan, probe, eps);
    }
  }
}

TEST(PairKernelTest, SumsAxesInPairMatchesOrder) {
  // Squared gaps 1, 2^-24, 2^-24: adding 1 first, each 2^-24 rounds away
  // and the sum is 1 <= eps^2 = 1; adding 1 last gives 1 + 2^-23. So the
  // x, y, z order of PairMatches decides which boxes are within eps = 1.
  const float g = 0x1p-12f;
  const std::vector<AABB> boxes = {
      AABB::FromPoint(Vec3(1, g, g)), AABB::FromPoint(Vec3(g, 1, g)),
      AABB::FromPoint(Vec3(g, g, 1)), AABB::FromPoint(Vec3(-1, -g, g)),
      AABB::FromPoint(Vec3(0, 0, 0)), AABB::FromPoint(Vec3(0, 0, 0)),
      AABB::FromPoint(Vec3(0, 0, 0))};
  const AABB probe = AABB::FromPoint(Vec3(0, 0, 0));
  std::vector<ElementId> ids(boxes.size());
  for (std::size_t j = 0; j < ids.size(); ++j) {
    ids[j] = static_cast<ElementId>(j);
  }
  EXPECT_TRUE(join::PairMatches(probe, boxes[0], 1.0f));
  EXPECT_FALSE(join::PairMatches(probe, boxes[2], 1.0f));
  ExpectPairKernelMatchesScalar<true>(boxes, ids, 4, probe, 1.0f);
  ExpectPairKernelMatchesScalar<false>(boxes, ids, 4, probe, 1.0f);
}

}  // namespace
}  // namespace simspatial
