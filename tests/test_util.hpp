#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"

namespace ipregel::testing {

/// Builds a CSR with in-edges (so every combiner version can run) under the
/// given addressing mode.
inline graph::CsrGraph make_graph(
    const graph::EdgeList& edges,
    graph::AddressingMode addressing = graph::AddressingMode::kOffset) {
  return graph::CsrGraph::build(
      edges, graph::CsrBuildOptions{.addressing = addressing,
                                    .build_in_edges = true,
                                    .keep_weights = true});
}

/// Team sizes every version is checked at: 1, 2 and 4 threads and this
/// host's core count, deduplicated. Races and thread-share boundaries that
/// one team size hides show up at another.
inline std::vector<std::size_t> team_sizes() {
  std::vector<std::size_t> sizes = {
      1, 2, 4, std::max<std::size_t>(1, std::thread::hardware_concurrency())};
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

/// Runs `program` under every applicable framework version at every team
/// size and checks that each produces exactly `expected` (slot-indexed).
/// `tag` labels failures.
template <typename Program>
void expect_all_versions_match(
    const graph::CsrGraph& g, Program program,
    const std::vector<typename Program::value_type>& expected,
    const std::string& tag) {
  for (const std::size_t threads : team_sizes()) {
    runtime::ThreadPool pool(threads);
    for (const VersionId v : applicable_versions<Program>()) {
      std::vector<typename Program::value_type> values;
      const RunResult result =
          run_version(g, program, v, EngineOptions{}, &pool, &values);
      ASSERT_EQ(values.size(), expected.size())
          << tag << " / " << version_name(v) << " / " << threads
          << " threads";
      for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
        ASSERT_EQ(values[s], expected[s])
            << tag << " / " << version_name(v) << " / " << threads
            << " threads at slot " << s << " (id " << g.id_of(s)
            << "), after " << result.supersteps << " supersteps";
      }
    }
  }
}

/// Same, with approximate comparison for floating-point programs.
template <typename Program>
void expect_all_versions_near(
    const graph::CsrGraph& g, Program program,
    const std::vector<typename Program::value_type>& expected,
    double tolerance, const std::string& tag) {
  for (const std::size_t threads : team_sizes()) {
    runtime::ThreadPool pool(threads);
    for (const VersionId v : applicable_versions<Program>()) {
      std::vector<typename Program::value_type> values;
      run_version(g, program, v, EngineOptions{}, &pool, &values);
      ASSERT_EQ(values.size(), expected.size())
          << tag << " / " << version_name(v) << " / " << threads
          << " threads";
      for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
        ASSERT_NEAR(values[s], expected[s], tolerance)
            << tag << " / " << version_name(v) << " / " << threads
            << " threads at slot " << s << " (id " << g.id_of(s) << ")";
      }
    }
  }
}

}  // namespace ipregel::testing
