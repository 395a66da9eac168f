#pragma once

/// \file hnsw_invariants.hpp
/// Structural checks on a finished HNSW graph, shared by the serial and the
/// concurrent HNSW suites.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "index/hnsw_index.hpp"

namespace vdb::testing {

/// Degree bounds, no self-links and no duplicate links on every layer, and
/// every one of the `count` nodes reachable on layer 0 from the entry point.
inline void ExpectGraphInvariants(const HnswIndex& index, std::size_t count) {
  const HnswParams& params = index.Params();
  for (std::uint32_t offset = 0; offset < count; ++offset) {
    for (int layer = 0; layer <= index.MaxLevel(); ++layer) {
      const auto links = index.NeighborsForTest(offset, layer);
      EXPECT_LE(links.size(), layer == 0 ? params.m0 : params.m)
          << "node " << offset << " layer " << layer;
      const std::set<std::uint32_t> unique(links.begin(), links.end());
      EXPECT_EQ(unique.size(), links.size()) << "duplicate link at node " << offset;
      EXPECT_EQ(unique.count(offset), 0u) << "self-link at node " << offset;
    }
  }
  std::vector<char> seen(count, 0);
  std::vector<std::uint32_t> frontier{index.EntryPointForTest()};
  seen[frontier.front()] = 1;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const std::uint32_t current = frontier.back();
    frontier.pop_back();
    for (const std::uint32_t neighbor : index.NeighborsForTest(current, 0)) {
      if (seen[neighbor] == 0) {
        seen[neighbor] = 1;
        ++reached;
        frontier.push_back(neighbor);
      }
    }
  }
  EXPECT_EQ(reached, count) << "nodes unreachable on layer 0 from the entry point";
}

}  // namespace vdb::testing
