#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace mmrfd::net {
namespace {

TEST(Topology, FullMeshDegrees) {
  const auto t = Topology::full(6);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.min_degree(), 5u);
  for (std::uint32_t i = 0; i < 6; ++i) {
    EXPECT_EQ(t.neighbors(ProcessId{i}).size(), 5u);
    EXPECT_FALSE(t.are_neighbors(ProcessId{i}, ProcessId{i}));
  }
  EXPECT_TRUE(t.are_neighbors(ProcessId{0}, ProcessId{5}));
}

TEST(Topology, FullMatchesTheEdgeListOfAllPairs) {
  for (const std::uint32_t n : {1u, 2u, 5u, 64u}) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    }
    const auto full = Topology::full(n);
    const auto reference = Topology::from_edges(n, pairs);
    EXPECT_EQ(full.min_degree(), reference.min_degree()) << "n=" << n;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto got = full.neighbors(ProcessId{i});
      const auto want = reference.neighbors(ProcessId{i});
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "n=" << n << " id=" << i;
      for (std::uint32_t j = 0; j < n; ++j) {
        EXPECT_EQ(full.are_neighbors(ProcessId{i}, ProcessId{j}),
                  reference.are_neighbors(ProcessId{i}, ProcessId{j}))
            << "n=" << n << " " << i << "-" << j;
      }
    }
  }
}

TEST(Topology, RingDegreesAndAdjacency) {
  const auto t = Topology::ring(5);
  EXPECT_EQ(t.min_degree(), 2u);
  EXPECT_TRUE(t.are_neighbors(ProcessId{0}, ProcessId{4}));
  EXPECT_TRUE(t.are_neighbors(ProcessId{0}, ProcessId{1}));
  EXPECT_FALSE(t.are_neighbors(ProcessId{0}, ProcessId{2}));
}

TEST(Topology, StarCentredAtZero) {
  const auto t = Topology::star(5);
  EXPECT_EQ(t.neighbors(ProcessId{0}).size(), 4u);
  EXPECT_EQ(t.neighbors(ProcessId{3}).size(), 1u);
  EXPECT_TRUE(t.are_neighbors(ProcessId{0}, ProcessId{3}));
  EXPECT_FALSE(t.are_neighbors(ProcessId{1}, ProcessId{2}));
}

TEST(Topology, SymmetricAdjacency) {
  const auto t = Topology::random_connected(20, 0.2, 7);
  for (std::uint32_t i = 0; i < 20; ++i) {
    for (ProcessId j : t.neighbors(ProcessId{i})) {
      EXPECT_TRUE(t.are_neighbors(j, ProcessId{i}));
    }
  }
}

TEST(Topology, RandomConnectedIsConnected) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    EXPECT_TRUE(Topology::random_connected(30, 0.05, seed).connected());
  }
}

TEST(Topology, FromEdges) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = {
      {0, 1}, {1, 2}};
  const auto t = Topology::from_edges(4, edges);
  EXPECT_TRUE(t.are_neighbors(ProcessId{0}, ProcessId{1}));
  EXPECT_FALSE(t.are_neighbors(ProcessId{0}, ProcessId{2}));
  EXPECT_FALSE(t.connected());  // node 3 isolated
}

TEST(Topology, ConnectivityChecks) {
  EXPECT_TRUE(Topology::full(5).connected());
  EXPECT_TRUE(Topology::ring(5).connected());
}

TEST(Topology, KVertexConnectivityFullMesh) {
  // K_n is (n-1)-connected.
  const auto t = Topology::full(5);
  EXPECT_TRUE(t.k_vertex_connected(1));
  EXPECT_TRUE(t.k_vertex_connected(2));
  EXPECT_TRUE(t.k_vertex_connected(3));
}

TEST(Topology, KVertexConnectivityRing) {
  // A cycle is 2-connected but not 3-connected.
  const auto t = Topology::ring(6);
  EXPECT_TRUE(t.k_vertex_connected(1));
  EXPECT_FALSE(t.k_vertex_connected(2));
}

TEST(Topology, KVertexConnectivityStar) {
  // Removing the hub disconnects a star.
  const auto t = Topology::star(5);
  EXPECT_FALSE(t.k_vertex_connected(1));
}

TEST(Topology, DuplicateEdgesIgnored) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = {
      {0, 1}, {0, 1}, {1, 0}};
  const auto t = Topology::from_edges(2, edges);
  EXPECT_EQ(t.neighbors(ProcessId{0}).size(), 1u);
}

}  // namespace
}  // namespace mmrfd::net
