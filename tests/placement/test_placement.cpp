#include "placement/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace stopwatch::placement {
namespace {

/// The node-based std::set checker valid_placement used to be: one
/// red-black node per edge. Kept as the reference the bitmap checker must
/// agree with.
bool reference_valid_placement(const std::vector<Triangle>& triangles, int n,
                               int c) {
  std::set<std::pair<int, int>> edges;
  std::vector<int> load(static_cast<std::size_t>(n), 0);
  for (const Triangle& t : triangles) {
    const int vs[3] = {t.a, t.b, t.c};
    for (int v : vs) {
      if (v < 0 || v >= n) return false;
    }
    if (t.a == t.b || t.a == t.c || t.b == t.c) return false;
    const std::pair<int, int> es[3] = {
        {std::min(t.a, t.b), std::max(t.a, t.b)},
        {std::min(t.a, t.c), std::max(t.a, t.c)},
        {std::min(t.b, t.c), std::max(t.b, t.c)},
    };
    for (const auto& e : es) {
      if (!edges.insert(e).second) return false;  // edge reused
    }
    for (int v : vs) {
      if (++load[static_cast<std::size_t>(v)] > c && c > 0) return false;
    }
  }
  return true;
}

TEST(Quasigroup, IdempotentCommutativeLatinSquare) {
  for (int q : {1, 3, 5, 7, 9, 11, 21}) {
    const Quasigroup Q(q);
    for (int a = 0; a < q; ++a) {
      EXPECT_EQ(Q.op(a, a), a) << "idempotent, q=" << q;
      std::set<int> row;
      for (int b = 0; b < q; ++b) {
        EXPECT_EQ(Q.op(a, b), Q.op(b, a)) << "commutative";
        row.insert(Q.op(a, b));
      }
      EXPECT_EQ(static_cast<int>(row.size()), q) << "Latin row, q=" << q;
    }
  }
}

TEST(Theorem1, SmallKnownValues) {
  // K_3: 1 triangle. K_7: C(7,2)=21 -> 7 triangles (Steiner).
  EXPECT_EQ(max_triangle_packing(3), 1);
  EXPECT_EQ(max_triangle_packing(7), 7);
  // K_9: 36/3 = 12 (STS(9)).
  EXPECT_EQ(max_triangle_packing(9), 12);
  // n < 3: no triangle.
  EXPECT_EQ(max_triangle_packing(0), 0);
  EXPECT_EQ(max_triangle_packing(2), 0);
  // K_5: C(5,2)=10; 3k<=10 with 10-3k not in {1,2} -> k=2 (10-6=4 ok; k=3
  // leaves 1).
  EXPECT_EQ(max_triangle_packing(5), 2);
  // K_4 (even): (6 - 2)/3 = 1.
  EXPECT_EQ(max_triangle_packing(4), 1);
  // K_6 (even): (15 - 3)/3 = 4.
  EXPECT_EQ(max_triangle_packing(6), 4);
}

TEST(Theorem1, QuadraticScaling) {
  // Θ(n²): packing count relative to C(n,2)/3 approaches 1.
  for (int n : {21, 45, 99, 201}) {
    const long k = max_triangle_packing(n);
    const long long pairs = static_cast<long long>(n) * (n - 1) / 2;
    EXPECT_GE(3 * k, pairs - 4);
  }
}

TEST(Bose, ConstructsValidSteinerTripleSystem) {
  for (int n : {9, 15, 21, 33, 45}) {
    const BoseSystem sys = bose_construction(n);
    EXPECT_EQ(sys.n, n);
    EXPECT_EQ(static_cast<int>(sys.g0.size()), (n / 3));
    EXPECT_EQ(static_cast<int>(sys.gt.size()), sys.v);

    // All triangles together form an STS: every edge exactly once.
    std::vector<Triangle> all = sys.g0;
    for (const auto& g : sys.gt) all.insert(all.end(), g.begin(), g.end());
    EXPECT_EQ(static_cast<long>(all.size()), max_triangle_packing(n));
    EXPECT_TRUE(valid_placement(all, n));

    std::set<std::pair<int, int>> edges;
    for (const auto& t : all) {
      edges.insert({std::min(t.a, t.b), std::max(t.a, t.b)});
      edges.insert({std::min(t.a, t.c), std::max(t.a, t.c)});
      edges.insert({std::min(t.b, t.c), std::max(t.b, t.c)});
    }
    EXPECT_EQ(static_cast<long long>(edges.size()),
              static_cast<long long>(n) * (n - 1) / 2)
        << "every edge of K_n covered, n=" << n;
  }
}

TEST(Bose, GroupVisitCounts) {
  const BoseSystem sys = bose_construction(21);
  // G_0 visits each node exactly once.
  auto g0_occ = occupancy(sys.g0, 21);
  for (int o : g0_occ) EXPECT_EQ(o, 1);
  // Each G_t visits each node exactly three times.
  for (const auto& g : sys.gt) {
    auto occ = occupancy(g, 21);
    for (int o : occ) EXPECT_EQ(o, 3);
  }
}

TEST(Bose, RejectsBadN) {
  EXPECT_THROW(bose_construction(10), ContractViolation);
  EXPECT_THROW(bose_construction(12), ContractViolation);
  EXPECT_THROW(bose_construction(7), ContractViolation);
}

class Theorem2Test
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Theorem2Test, PlacementIsValidAndMeetsBound) {
  const auto [n, c] = GetParam();
  const auto placement = theorem2_placement(n, c);
  EXPECT_EQ(static_cast<long>(placement.size()), theorem2_bound(n, c))
      << "n=" << n << " c=" << c;
  EXPECT_TRUE(valid_placement(placement, n, c)) << "n=" << n << " c=" << c;
}

INSTANTIATE_TEST_SUITE_P(
    CapacitySweep, Theorem2Test,
    ::testing::Values(
        // n = 9: c <= 4; c mod 3 covers 1, 2, 0, 1.
        std::make_tuple(9, 1), std::make_tuple(9, 2), std::make_tuple(9, 3),
        std::make_tuple(9, 4),
        // n = 15: c <= 7.
        std::make_tuple(15, 1), std::make_tuple(15, 2),
        std::make_tuple(15, 3), std::make_tuple(15, 5),
        std::make_tuple(15, 6), std::make_tuple(15, 7),
        // n = 21: c <= 10.
        std::make_tuple(21, 4), std::make_tuple(21, 8),
        std::make_tuple(21, 9), std::make_tuple(21, 10),
        // n = 45: c <= 22.
        std::make_tuple(45, 10), std::make_tuple(45, 21),
        std::make_tuple(45, 22),
        // n = 99: c <= 49.
        std::make_tuple(99, 33), std::make_tuple(99, 47),
        std::make_tuple(99, 49)));

TEST(Theorem2, UtilizationBeatsIsolation) {
  // Isolation runs n VMs on n machines. StopWatch with capacity c places
  // ~cn/3 VMs, beating isolation from c >= 4 onward.
  for (int n : {9, 21, 45, 99}) {
    const int c = (n - 1) / 2;
    EXPECT_GT(theorem2_bound(n, c), n) << "n=" << n;
  }
}

TEST(Theorem2, MatchesBoseSystemGroups) {
  // theorem2_placement emits the Bose groups directly; assembled from the
  // grouped system, the same triangles come out in the same order: G_0 if
  // c is not a multiple of 3, G_1 .. G_{c/3}, and for c = 2 (mod 3) the
  // l = 0 triangle of each i < v in G_v.
  const auto same = [](const Triangle& x, const Triangle& y) {
    return x.a == y.a && x.b == y.b && x.c == y.c;
  };
  for (const int n : {9, 15, 21, 45, 99, 201}) {
    const BoseSystem sys = bose_construction(n);
    for (int c = 1; c <= (n - 1) / 2; ++c) {
      std::vector<Triangle> expected;
      if (c % 3 != 0) expected = sys.g0;
      for (int t = 1; t <= c / 3; ++t) {
        const auto& g = sys.gt[static_cast<std::size_t>(t - 1)];
        expected.insert(expected.end(), g.begin(), g.end());
      }
      if (c % 3 == 2) {
        const auto& g_v = sys.gt[static_cast<std::size_t>(sys.v - 1)];
        for (int i = 0; i < sys.v; ++i) {
          expected.push_back(g_v[static_cast<std::size_t>(3 * i)]);
        }
      }
      const std::vector<Triangle> placed = theorem2_placement(n, c);
      ASSERT_EQ(placed.size(), expected.size()) << "n=" << n << " c=" << c;
      for (std::size_t i = 0; i < placed.size(); ++i) {
        ASSERT_TRUE(same(placed[i], expected[i]))
            << "n=" << n << " c=" << c << " triangle " << i;
      }
    }
  }
}

TEST(Theorem2, RejectsOutOfRangeInputs) {
  EXPECT_THROW(theorem2_placement(10, 1), ContractViolation);
  EXPECT_THROW(theorem2_placement(9, 0), ContractViolation);
  EXPECT_THROW(theorem2_placement(9, 5), ContractViolation);  // c > (n-1)/2
}

class GreedyTest : public ::testing::TestWithParam<int> {};

TEST_P(GreedyTest, ProducesValidPackingOfDecentSize) {
  const int n = GetParam();
  const auto packing = greedy_packing(n);
  EXPECT_TRUE(valid_placement(packing, n));
  const long bound = max_triangle_packing(n);
  if (bound > 0) {
    EXPECT_GE(static_cast<long>(packing.size()), bound / 2)
        << "greedy too weak for n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GreedyTest,
                         ::testing::Values(3, 4, 5, 8, 10, 16, 25, 40, 64));

TEST(Greedy, HonorsCapacity) {
  for (int c : {1, 2, 3, 5}) {
    const auto packing = greedy_packing(30, c);
    EXPECT_TRUE(valid_placement(packing, 30, c)) << "c=" << c;
  }
}

TEST(ValidPlacement, DetectsViolations) {
  // Edge reuse.
  EXPECT_FALSE(valid_placement({{0, 1, 2}, {0, 1, 3}}, 4));
  // Degenerate triangle.
  EXPECT_FALSE(valid_placement({{0, 0, 1}}, 3));
  // Vertex out of range.
  EXPECT_FALSE(valid_placement({{0, 1, 5}}, 4));
  // Capacity violation.
  EXPECT_FALSE(valid_placement({{0, 1, 2}, {0, 3, 4}}, 5, 1));
  // A clean placement.
  EXPECT_TRUE(valid_placement({{0, 1, 2}, {0, 3, 4}}, 5, 2));
  // The same triangle in reversed vertex order reuses all three edges.
  EXPECT_FALSE(valid_placement({{0, 1, 2}, {2, 1, 0}}, 3));
}

TEST(ValidPlacement, RejectsNegativeMachineCount) {
  EXPECT_THROW(static_cast<void>(valid_placement({}, -1)), ContractViolation);
  EXPECT_THROW(static_cast<void>(valid_placement({{0, 1, 2}}, -1, 2)),
               ContractViolation);
  EXPECT_TRUE(valid_placement({}, 0));
}

TEST(ValidPlacement, AgreesWithSetReferenceOnRandomLists) {
  // Seeded random lists built to hit every rejection path: packings
  // validated against a capacity other than the one they were built for
  // (overflow), copies of an early triangle appended at the end (edge reuse
  // far apart), one edge reused in reversed order as a new triangle's first,
  // second or third edge, reversed or rotated vertex order, degenerate and
  // out-of-range vertices, and free-form lists of random triples.
  Rng rng(0x5A1DA7E5ULL);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 30));
    const int c_build = static_cast<int>(rng.uniform_int(0, 5));
    const int c_check = static_cast<int>(rng.uniform_int(0, 5));
    std::vector<Triangle> ts;
    if (rng.chance(0.8)) {
      ts = greedy_packing(n, c_build);
      // Shuffle, so reused edges are not always adjacent in the list.
      for (std::size_t i = ts.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(ts[i - 1], ts[j]);
      }
    } else {
      const auto count = rng.uniform_int(0, 8);
      for (std::int64_t i = 0; i < count; ++i) {
        ts.push_back(Triangle{static_cast<int>(rng.uniform_int(-1, n)),
                              static_cast<int>(rng.uniform_int(-1, n)),
                              static_cast<int>(rng.uniform_int(-1, n))});
      }
    }
    if (!ts.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ts.size()) - 1));
      Triangle& t = ts[pick];
      switch (rng.uniform_int(0, 7)) {
        case 0:  // copy of the first triangle, reversed, at the far end
          ts.push_back(Triangle{ts.front().c, ts.front().b, ts.front().a});
          break;
        case 1:  // reversed vertex order in place (still valid)
          std::swap(t.a, t.c);
          break;
        case 2:  // one shared edge with a fresh third vertex
          ts.push_back(Triangle{t.b, t.a,
                                static_cast<int>(rng.uniform_int(0, n - 1))});
          break;
        case 3:  // degenerate
          t.c = t.a;
          break;
        case 4:  // out of range, below or above
          t.b = rng.chance(0.5) ? -1 : n;
          break;
        case 5: {
          // One edge reused in reversed order, as the new triangle's first,
          // second or third edge.
          const int fresh = static_cast<int>(rng.uniform_int(0, n - 1));
          switch (rng.uniform_int(0, 2)) {
            case 0:
              ts.push_back(Triangle{t.c, t.b, fresh});
              break;
            case 1:
              ts.push_back(Triangle{t.c, fresh, t.a});
              break;
            default:
              ts.push_back(Triangle{fresh, t.b, t.a});
              break;
          }
          break;
        }
        default:  // unmodified
          break;
      }
    }
    const bool expected = reference_valid_placement(ts, n, c_check);
    ASSERT_EQ(valid_placement(ts, n, c_check), expected)
        << "trial " << trial << " n=" << n << " c=" << c_check;
    (expected ? accepted : rejected) += 1;
  }
  // Both verdicts must be well represented for the agreement to mean much.
  EXPECT_GT(accepted, 400);
  EXPECT_GT(rejected, 400);
}

TEST(ValidPlacement, FullCapacityTheorem2AtCloudScale) {
  // The cloud_scale placement: 376,251 triangles over 1503 machines.
  const int n = 1503;
  const int c = (n - 1) / 2;
  std::vector<Triangle> ts = theorem2_placement(n, c);
  ASSERT_EQ(ts.size(), 376251u);
  EXPECT_TRUE(valid_placement(ts, n, c));
  // Placing any triangle a second time reuses its three edges.
  ts.push_back(ts[ts.size() / 2]);
  EXPECT_FALSE(valid_placement(ts, n, c));
}

TEST(ValidPlacement, OneReusedEdgeAtCloudScaleAgreesWithSetReference) {
  // At n = 1503 with most edges free (G_0 + G_1: 2004 triangles), a new
  // triangle that reuses exactly one edge of a placed one, in reversed
  // vertex order, as its first, second or third edge, is rejected however
  // far apart the bits of its edges lie; a triangle of free edges is not.
  const int n = 1503;
  const std::vector<Triangle> base = theorem2_placement(n, 4);
  const std::size_t picks[] = {0, base.size() / 2, base.size() - 1};
  for (const std::size_t pick : picks) {
    const Triangle t = base[pick];
    const int far = t.a < n / 2 ? n - 1 : 0;
    ASSERT_TRUE(far != t.a && far != t.b && far != t.c);
    const Triangle cases[] = {
        {t.b, t.a, far},  // reuses {a, b} first
        {t.c, far, t.a},  // reuses {a, c} second
        {far, t.c, t.b},  // reuses {b, c} third
    };
    for (const Triangle& added : cases) {
      std::vector<Triangle> ts = base;
      ts.push_back(added);
      EXPECT_FALSE(reference_valid_placement(ts, n, 0));
      EXPECT_FALSE(valid_placement(ts, n)) << "pick " << pick;
    }
  }
  std::vector<Triangle> ts = base;
  ts.push_back(Triangle{1, 700, n - 1});
  ASSERT_TRUE(reference_valid_placement(ts, n, 0));
  EXPECT_TRUE(valid_placement(ts, n));
}

}  // namespace
}  // namespace stopwatch::placement
