#include "placement/placement.hpp"

#include <algorithm>
#include <cstdint>

#include "common/contracts.hpp"
#include "obs/profiler.hpp"

namespace stopwatch::placement {

namespace {

/// a ∘ b in the quasigroup of odd order q, for a, b in [0, q):
/// (a + b) * (q+1)/2 mod q is (a + b) / 2 mod q, and an odd sum is halved
/// as a + b + q. Bose's construction calls it unchecked, its arguments
/// being in range by construction.
int product(int a, int b, int q) {
  const int sum = a + b;
  const int half = (sum % 2 == 0 ? sum : sum + q) / 2;
  return half < q ? half : half - q;
}

// Bose's construction over n = 3q points, q = 2v + 1 odd: node (a, l) is
// index a + l * q, a in [0, q), l in {0, 1, 2}.

/// Appends G_0, the q "spool" triples {(a,0), (a,1), (a,2)}.
void append_g0(std::vector<Triangle>& out, int q) {
  for (int a = 0; a < q; ++a) out.push_back(Triangle{a, a + q, a + 2 * q});
}

/// Appends G_t, 1 <= t <= v: {(a_i, l), (a_j, l), (a_i ∘ a_j, l+1 mod 3)},
/// j = i + t mod q.
void append_group(std::vector<Triangle>& out, int q, int t) {
  for (int i = 0; i < q; ++i) {
    const int j = i + t < q ? i + t : i + t - q;
    const int ij = product(i, j, q);
    out.push_back(Triangle{i, j, ij + q});
    out.push_back(Triangle{i + q, j + q, ij + 2 * q});
    out.push_back(Triangle{i + 2 * q, j + 2 * q, ij});
  }
}

}  // namespace

Quasigroup::Quasigroup(int order) : order_(order) {
  SW_EXPECTS(order >= 1);
  SW_EXPECTS(order % 2 == 1);
}

int Quasigroup::op(int a, int b) const {
  SW_EXPECTS(a >= 0 && a < order_);
  SW_EXPECTS(b >= 0 && b < order_);
  return product(a, b, order_);
}

long max_triangle_packing(int n) {
  SW_EXPECTS(n >= 0);
  if (n < 3) return 0;
  const long long pairs = static_cast<long long>(n) * (n - 1) / 2;
  if (n % 2 == 1) {
    // Largest k with 3k <= C(n,2) and C(n,2) - 3k not in {1, 2}.
    long long k = pairs / 3;
    while (k > 0 && (pairs - 3 * k == 1 || pairs - 3 * k == 2)) --k;
    return static_cast<long>(k);
  }
  // n even: largest k with 3k <= C(n,2) - n/2.
  return static_cast<long>((pairs - n / 2) / 3);
}

BoseSystem bose_construction(int n) {
  SW_EXPECTS(n >= 3);
  SW_EXPECTS(n % 6 == 3);
  BoseSystem sys;
  sys.n = n;
  sys.v = (n - 3) / 6;
  const int q = 2 * sys.v + 1;
  append_g0(sys.g0, q);
  for (int t = 1; t <= sys.v; ++t) append_group(sys.gt.emplace_back(), q, t);
  return sys;
}

long theorem2_bound(int n, int c) {
  SW_EXPECTS(n % 6 == 3);
  SW_EXPECTS(c >= 1 && c <= (n - 1) / 2);
  switch (c % 3) {
    case 0:
      return static_cast<long>(c) * n / 3;
    case 1:
      return static_cast<long>(c) * n / 3;
    default:  // c ≡ 2 (mod 3)
      return static_cast<long>(c - 1) * n / 3 + (n - 3) / 6;
  }
}

std::vector<Triangle> theorem2_placement(int n, int c) {
  OBS_PROF_SCOPE("placement.theorem2");
  SW_EXPECTS(n % 6 == 3);
  SW_EXPECTS(c >= 1 && c <= (n - 1) / 2);
  const int v = (n - 3) / 6;
  const int q = 2 * v + 1;

  std::vector<Triangle> placed;
  placed.reserve(static_cast<std::size_t>(theorem2_bound(n, c)));
  // c ≡ 0: G_1 .. G_{c/3}, each visiting every node exactly 3 times.
  // c ≡ 1: G_0 (1 visit) + G_1 .. G_{(c-1)/3}.
  // c ≡ 2: G_0 + G_1 .. G_{(c-2)/3} + v triangles from G_v visiting each
  // node at most once. In every case the group count is c / 3.
  if (c % 3 != 0) append_g0(placed, q);
  for (int t = 1; t <= c / 3; ++t) append_group(placed, q, t);
  if (c % 3 == 2) {
    // {(a_i, 0), (a_j, 0), (a_i ∘ a_j, 1)}, j = i + v (no wrap: i < v).
    // G_v is untouched by the groups above: c <= (n-1)/2 = 3v+1 gives
    // (c-2)/3 <= v - 1/3 < v.
    SW_ASSERT(v >= 1);  // c ≡ 2 requires c >= 2, so (n-1)/2 >= 2, v >= 1
    for (int i = 0; i < v; ++i) {
      placed.push_back(Triangle{i, i + v, product(i, i + v, q) + q});
    }
  }
  SW_ENSURES(static_cast<long>(placed.size()) == theorem2_bound(n, c));
  return placed;
}

std::vector<Triangle> greedy_packing(int n, int c) {
  SW_EXPECTS(n >= 0);
  std::vector<Triangle> placed;
  if (n < 3) return placed;

  // used[a][b]: edge {a,b} consumed.
  std::vector<std::vector<bool>> used(static_cast<std::size_t>(n),
                                      std::vector<bool>(static_cast<std::size_t>(n), false));
  std::vector<int> load(static_cast<std::size_t>(n), 0);
  const auto cap_ok = [&](int x) { return c <= 0 || load[static_cast<std::size_t>(x)] < c; };

  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (used[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]) continue;
      if (!cap_ok(a) || !cap_ok(b)) continue;
      for (int d = b + 1; d < n; ++d) {
        if (used[static_cast<std::size_t>(a)][static_cast<std::size_t>(d)] ||
            used[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)]) {
          continue;
        }
        if (!cap_ok(d)) continue;
        placed.push_back(Triangle{a, b, d});
        used[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
        used[static_cast<std::size_t>(a)][static_cast<std::size_t>(d)] = true;
        used[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)] = true;
        ++load[static_cast<std::size_t>(a)];
        ++load[static_cast<std::size_t>(b)];
        ++load[static_cast<std::size_t>(d)];
        break;
      }
    }
  }
  return placed;
}

bool valid_placement(const std::vector<Triangle>& triangles, int n, int c) {
  SW_EXPECTS(n >= 0);
  const auto un = static_cast<std::size_t>(n);
  std::vector<int> load(un, 0);
  // One bit per vertex pair {lo < hi}, at lo * n + hi: an edge repeats iff
  // its bit is already set.
  std::vector<std::uint64_t> used((un * un + 63) / 64, 0);
  const auto reuse = [&used, un](int x, int y) {
    const std::size_t bit = static_cast<std::size_t>(std::min(x, y)) * un +
                            static_cast<std::size_t>(std::max(x, y));
    std::uint64_t& word = used[bit / 64];
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    const bool seen = (word & mask) != 0;
    word |= mask;
    return seen;
  };
  for (const Triangle& t : triangles) {
    const int vs[3] = {t.a, t.b, t.c};
    for (int v : vs) {
      if (v < 0 || v >= n) return false;
    }
    if (t.a == t.b || t.a == t.c || t.b == t.c) return false;
    for (int v : vs) {
      if (++load[static_cast<std::size_t>(v)] > c && c > 0) return false;
    }
    if (reuse(t.a, t.b) || reuse(t.a, t.c) || reuse(t.b, t.c)) return false;
  }
  return true;
}

std::vector<int> occupancy(const std::vector<Triangle>& t, int n) {
  std::vector<int> load(static_cast<std::size_t>(n), 0);
  for (const Triangle& tri : t) {
    ++load[static_cast<std::size_t>(tri.a)];
    ++load[static_cast<std::size_t>(tri.b)];
    ++load[static_cast<std::size_t>(tri.c)];
  }
  return load;
}

}  // namespace stopwatch::placement
