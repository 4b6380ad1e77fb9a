#include "placement/placement.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <utility>

#include "common/contracts.hpp"
#include "obs/profiler.hpp"

namespace stopwatch::placement {

Quasigroup::Quasigroup(int order) : order_(order), half_((order + 1) / 2) {
  SW_EXPECTS(order >= 1);
  SW_EXPECTS(order % 2 == 1);
}

int Quasigroup::op(int a, int b) const {
  SW_EXPECTS(a >= 0 && a < order_);
  SW_EXPECTS(b >= 0 && b < order_);
  return static_cast<int>(
      (static_cast<long long>(a + b) * half_) % order_);
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
  const int q = 2 * sys.v + 1;  // quasigroup order
  const Quasigroup Q(q);

  // Node (a, l) -> index a + l * q, a in [0, q), l in {0, 1, 2}.
  const auto node = [q](int a, int l) { return a + l * q; };

  // G_0: the 2v+1 "spool" triples {(a,0), (a,1), (a,2)}.
  for (int a = 0; a < q; ++a) {
    sys.g0.push_back(Triangle{node(a, 0), node(a, 1), node(a, 2)});
  }

  // G_t, 1 <= t <= v: {(a_i, l), (a_j, l), (a_i ∘ a_j, l+1 mod 3)},
  // j = i + t mod q.
  for (int t = 1; t <= sys.v; ++t) {
    std::vector<Triangle> group;
    for (int i = 0; i < q; ++i) {
      const int j = (i + t) % q;
      for (int l = 0; l < 3; ++l) {
        group.push_back(
            Triangle{node(i, l), node(j, l), node(Q.op(i, j), (l + 1) % 3)});
      }
    }
    sys.gt.push_back(std::move(group));
  }
  return sys;
}

namespace {

// unique_ptr values keep each system's address stable across later map
// insertions, so references handed out under the lock stay valid after it
// is released. Guarded by a mutex rather than thread_local (cf. the
// chi-squared memo): a Bose system for n=201 is ~100 KB, and the parallel
// scenario runner would otherwise rebuild it once per worker thread.
struct BoseCache {
  std::mutex mutex;
  std::map<int, std::unique_ptr<BoseSystem>> by_n;
};

BoseCache& bose_cache() {
  static BoseCache cache;
  return cache;
}

}  // namespace

const BoseSystem& bose_construction_cached(int n) {
  BoseCache& cache = bose_cache();
  const std::lock_guard<std::mutex> lock(cache.mutex);
  auto it = cache.by_n.find(n);
  if (it == cache.by_n.end()) {
    it = cache.by_n
             .emplace(n, std::make_unique<BoseSystem>(bose_construction(n)))
             .first;
  }
  return *it->second;
}

void bose_cache_clear() {
  BoseCache& cache = bose_cache();
  const std::lock_guard<std::mutex> lock(cache.mutex);
  cache.by_n.clear();
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
  const BoseSystem& sys = bose_construction_cached(n);
  const int q = 2 * sys.v + 1;
  const Quasigroup Q(q);
  const auto node = [q](int a, int l) { return a + l * q; };

  std::vector<Triangle> placed;
  placed.reserve(static_cast<std::size_t>(theorem2_bound(n, c)));
  const auto take_groups = [&](int count) {
    for (int t = 1; t <= count; ++t) {
      const auto& g = sys.gt[static_cast<std::size_t>(t - 1)];
      placed.insert(placed.end(), g.begin(), g.end());
    }
  };

  if (c % 3 == 0) {
    // G_1 .. G_{c/3}: each visits every node exactly 3 times.
    take_groups(c / 3);
  } else if (c % 3 == 1) {
    // G_0 (1 visit) + G_1 .. G_{(c-1)/3}.
    placed.insert(placed.end(), sys.g0.begin(), sys.g0.end());
    take_groups((c - 1) / 3);
  } else {
    // G_0 + G_1 .. G_{(c-2)/3} + v triangles from G_v visiting each node
    // at most once: {(a_i, 0), (a_j, 0), (a_i ∘ a_j, 1)}, j = i + v.
    placed.insert(placed.end(), sys.g0.begin(), sys.g0.end());
    take_groups((c - 2) / 3);
    SW_ASSERT(sys.v >= 1);  // c ≡ 2 requires c >= 2, so (n-1)/2 >= 2, v >= 1
    // These must come from a group not already used; since
    // (c-2)/3 <= (n-7)/6 < v when c <= (n-1)/2 ... use G_v, which the
    // take_groups above touched only if (c-2)/3 == v, impossible:
    // c <= (n-1)/2 = 3v+1 gives (c-2)/3 <= v - 1/3 < v.
    for (int i = 0; i < sys.v; ++i) {
      const int j = i + sys.v;  // i + t mod q with t = v; i < v so no wrap
      placed.push_back(Triangle{node(i, 0), node(j, 0), node(Q.op(i, j), 1)});
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
  for (const Triangle& t : triangles) {
    const int vs[3] = {t.a, t.b, t.c};
    for (int v : vs) {
      if (v < 0 || v >= n) return false;
    }
    if (t.a == t.b || t.a == t.c || t.b == t.c) return false;
    for (int v : vs) {
      if (++load[static_cast<std::size_t>(v)] > c && c > 0) return false;
    }
  }

  // Edge-disjointness in O(T + n): counting-sort every edge {lo < hi} into
  // a bucket per lo; an edge repeats iff some hi occurs twice in one
  // bucket, which a per-vertex stamp catches. Scratch is 12 B per triangle
  // plus O(n), never O(n^2).
  const auto for_each_edge = [&triangles](auto&& visit) {
    for (const Triangle& t : triangles) {
      visit(std::min(t.a, t.b), std::max(t.a, t.b));
      visit(std::min(t.a, t.c), std::max(t.a, t.c));
      visit(std::min(t.b, t.c), std::max(t.b, t.c));
    }
  };
  // first[lo] .. first[lo + 1]: bucket lo's range in his.
  std::vector<std::size_t> first(un + 1, 0);
  for_each_edge(
      [&first](int lo, int) { ++first[static_cast<std::size_t>(lo) + 1]; });
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<int> his(3 * triangles.size());
  std::vector<std::size_t> cursor(first.begin(), first.end() - 1);
  for_each_edge([&his, &cursor](int lo, int hi) {
    his[cursor[static_cast<std::size_t>(lo)]++] = hi;
  });
  std::vector<int> seen_in(un, -1);  // last bucket each hi appeared in
  for (int lo = 0; lo < n; ++lo) {
    const auto b = static_cast<std::size_t>(lo);
    for (std::size_t i = first[b]; i < first[b + 1]; ++i) {
      int& seen = seen_in[static_cast<std::size_t>(his[i])];
      if (seen == lo) return false;  // edge {lo, his[i]} reused
      seen = lo;
    }
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
