// Replica placement in the cloud (paper Sec. VIII).
//
// StopWatch requires the three replicas of each guest VM to coreside with
// nonoverlapping sets of (replicas of) other VMs. Modeling machines as the
// vertices of K_n and each VM's replica triple as a triangle, the constraint
// is that placed triangles be pairwise *edge-disjoint*.
//
//  * Theorem 1 (via Horsley): the maximum number of edge-disjoint triangles
//    in K_n — so a cloud of n machines can run Θ(n²) guest VMs.
//  * Theorem 2 (via Bose's Steiner-triple-system construction over an
//    idempotent commutative quasigroup): an efficient constructive placement
//    for n ≡ 3 (mod 6) under per-machine capacity c ≤ (n-1)/2, split into
//    the three residue classes of c mod 3.
//  * A greedy packer for arbitrary n (the "practical algorithm" for clouds
//    whose size is not ≡ 3 mod 6).
#pragma once

#include <cstdint>
#include <vector>

namespace stopwatch::placement {

/// A triangle of machine indices (one guest VM's replica placement).
struct Triangle {
  int a{0};
  int b{0};
  int c{0};
};

/// An idempotent commutative quasigroup of odd order q: the multiplication
/// a ∘ b = ((a + b) * (q+1)/2) mod q. Backbone of Bose's construction.
class Quasigroup {
 public:
  explicit Quasigroup(int order);

  [[nodiscard]] int order() const { return order_; }
  /// a ∘ b for a, b in [0, order).
  [[nodiscard]] int op(int a, int b) const;

 private:
  int order_;
};

/// Theorem 1: size of a maximum edge-disjoint triangle packing of K_n.
[[nodiscard]] long max_triangle_packing(int n);

/// Bose construction: a Steiner triple system on n = 6v + 3 points,
/// organized into the paper's triangle groups G_0 (the "spool" triples,
/// 2v+1 of them) and G_1..G_v (n triangles each). Every node appears exactly
/// once in G_0 and exactly three times in each G_t. Kept as the grouped
/// view tests check theorem2_placement against; both emit each group with
/// the same routine.
struct BoseSystem {
  int n{0};
  int v{0};
  std::vector<Triangle> g0;
  std::vector<std::vector<Triangle>> gt;  // gt[t-1] = G_t, 1 <= t <= v
};
[[nodiscard]] BoseSystem bose_construction(int n);

/// Theorem 2: constructive capacity-constrained placement. Requires
/// n ≡ 3 (mod 6) and 1 <= c <= (n-1)/2. Returns edge-disjoint triangles
/// such that no machine appears in more than c of them, of the size the
/// theorem guarantees:
///   c ≡ 0 (mod 3):  (1/3)cn
///   c ≡ 1 (mod 3):  (1/3)cn
///   c ≡ 2 (mod 3):  (1/3)(c-1)n + (n-3)/6
/// The triangles are G_0 (if c ≢ 0), then G_1 .. G_{c/3}, then (if c ≡ 2)
/// v triangles of G_v, written straight into one vector of that size.
[[nodiscard]] std::vector<Triangle> theorem2_placement(int n, int c);

/// Number of VMs Theorem 2 guarantees for (n, c).
[[nodiscard]] long theorem2_bound(int n, int c);

/// Greedy edge-disjoint triangle packing for arbitrary n >= 3 (practical
/// fallback; typically achieves a large fraction of the Theorem 1 bound).
/// Honors per-machine capacity c if c > 0 (0 = unbounded).
[[nodiscard]] std::vector<Triangle> greedy_packing(int n, int c = 0);

/// Validates the StopWatch constraints: triangles are pairwise
/// edge-disjoint, have three distinct vertices in [0, n), and no vertex
/// appears in more than c triangles (c <= 0 disables the capacity check).
/// Requires n >= 0. One pass over the T triangles: O(T + n²/64) time, and
/// the scratch is one bit per vertex pair, n²/8 bytes (0.5 MB at n = 2001),
/// plus a load count per vertex.
[[nodiscard]] bool valid_placement(const std::vector<Triangle>& triangles,
                                   int n, int c = 0);

/// Per-machine occupancy (how many replicas each machine hosts).
[[nodiscard]] std::vector<int> occupancy(const std::vector<Triangle>& t, int n);

}  // namespace stopwatch::placement
