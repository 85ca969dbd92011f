// Communication topology.
//
// The DSN'03 model is a complete graph over a known membership; experiments
// use Topology::full(), which stores no adjacency: a node's neighbours are
// every other id, a PeerRange computes them. Ring/star/random variants keep
// sorted neighbour lists; they exist for unit tests and for stressing the
// gossip baseline, not for the core protocol's model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/peer_range.h"
#include "common/types.h"

namespace mmrfd::net {

class Topology {
 public:
  /// Complete graph K_n, O(1) to build and to hold.
  static Topology full(std::size_t n);
  /// Cycle p_0 - p_1 - ... - p_{n-1} - p_0.
  static Topology ring(std::size_t n);
  /// Star centred at p_0.
  static Topology star(std::size_t n);
  /// Erdos-Renyi G(n, p), forced connected by adding a ring first.
  static Topology random_connected(std::size_t n, double edge_prob,
                                   std::uint64_t seed);
  /// Build from an explicit undirected edge list.
  static Topology from_edges(std::size_t n,
                             std::span<const std::pair<std::uint32_t, std::uint32_t>> edges);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] bool are_neighbors(ProcessId a, ProcessId b) const;
  /// Neighbor ids of `id` (excluding `id` itself), ascending. Views this
  /// topology's storage: it must outlive the range.
  [[nodiscard]] PeerRange neighbors(ProcessId id) const;
  /// Minimum degree over all vertices.
  [[nodiscard]] std::size_t min_degree() const;
  /// True if the graph is connected (BFS).
  [[nodiscard]] bool connected() const;
  /// True if every pair of vertices remains connected after removing any
  /// set of `k` vertices — exact check, exponential in k; used in tests
  /// with small k only.
  [[nodiscard]] bool k_vertex_connected(std::size_t k) const;

 private:
  /// `full`: K_n without lists; otherwise n empty neighbor lists.
  Topology(std::size_t n, bool full)
      : n_(n), full_(full), adjacency_(full ? 0 : n) {}
  void add_edge(std::uint32_t a, std::uint32_t b);
  [[nodiscard]] bool connected_excluding(const std::vector<bool>& removed) const;

  std::size_t n_;
  bool full_;
  std::vector<std::vector<ProcessId>> adjacency_;  // sorted; empty when full_
};

}  // namespace mmrfd::net
