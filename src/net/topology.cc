#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "common/rng.h"

namespace mmrfd::net {

void Topology::add_edge(std::uint32_t a, std::uint32_t b) {
  assert(!full_ && a != b && a < n_ && b < n_);
  auto insert_sorted = [](std::vector<ProcessId>& v, ProcessId x) {
    auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it == v.end() || *it != x) v.insert(it, x);
  };
  insert_sorted(adjacency_[a], ProcessId{b});
  insert_sorted(adjacency_[b], ProcessId{a});
}

Topology Topology::full(std::size_t n) { return Topology(n, true); }

Topology Topology::ring(std::size_t n) {
  Topology t(n, false);
  if (n < 2) return t;
  for (std::uint32_t i = 0; i < n; ++i) {
    t.add_edge(i, static_cast<std::uint32_t>((i + 1) % n));
  }
  return t;
}

Topology Topology::star(std::size_t n) {
  Topology t(n, false);
  for (std::uint32_t i = 1; i < n; ++i) t.add_edge(0, i);
  return t;
}

Topology Topology::random_connected(std::size_t n, double edge_prob,
                                    std::uint64_t seed) {
  Topology t = ring(n);
  Xoshiro256 rng(seed);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(edge_prob)) t.add_edge(i, j);
    }
  }
  return t;
}

Topology Topology::from_edges(
    std::size_t n,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> edges) {
  Topology t(n, false);
  for (const auto& [a, b] : edges) t.add_edge(a, b);
  return t;
}

bool Topology::are_neighbors(ProcessId a, ProcessId b) const {
  if (a.value >= n_) return false;
  if (full_) return b.value < n_ && b != a;
  const auto& adj = adjacency_[a.value];
  return std::binary_search(adj.begin(), adj.end(), b);
}

PeerRange Topology::neighbors(ProcessId id) const {
  assert(id.value < n_);
  if (full_) return PeerRange::all_but(id, static_cast<std::uint32_t>(n_));
  return PeerRange(adjacency_[id.value]);
}

std::size_t Topology::min_degree() const {
  if (full_) return n_ == 0 ? 0 : n_ - 1;
  std::size_t d = adjacency_.empty() ? 0 : adjacency_[0].size();
  for (const auto& adj : adjacency_) d = std::min(d, adj.size());
  return d;
}

bool Topology::connected_excluding(const std::vector<bool>& removed) const {
  const std::size_t n = n_;
  std::size_t alive = 0;
  std::size_t start = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (!removed[i]) {
      ++alive;
      if (start == n) start = i;
    }
  }
  if (alive <= 1) return true;
  std::vector<bool> seen(n, false);
  std::queue<std::size_t> q;
  q.push(start);
  seen[start] = true;
  std::size_t visited = 1;
  while (!q.empty()) {
    const std::size_t u = q.front();
    q.pop();
    for (ProcessId v : neighbors(ProcessId{static_cast<std::uint32_t>(u)})) {
      if (!removed[v.value] && !seen[v.value]) {
        seen[v.value] = true;
        ++visited;
        q.push(v.value);
      }
    }
  }
  return visited == alive;
}

bool Topology::connected() const {
  return connected_excluding(std::vector<bool>(n_, false));
}

bool Topology::k_vertex_connected(std::size_t k) const {
  const std::size_t n = n_;
  if (k == 0) return connected();
  if (n <= k + 1) return false;
  // Enumerate all subsets of size <= k to remove (tests use tiny k/n).
  std::vector<std::size_t> combo;
  std::vector<bool> removed(n, false);
  // Recursive lambda over combinations.
  auto rec = [&](auto&& self, std::size_t start, std::size_t left) -> bool {
    if (left == 0) return connected_excluding(removed);
    for (std::size_t i = start; i + left <= n; ++i) {
      removed[i] = true;
      if (!self(self, i + 1, left - 1)) {
        removed[i] = false;
        return false;
      }
      removed[i] = false;
    }
    return true;
  };
  for (std::size_t r = 1; r <= k; ++r) {
    if (!rec(rec, 0, r)) return false;
  }
  return true;
}

}  // namespace mmrfd::net
