#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "graph/csr.hpp"
#include "graph/graph_stats.hpp"

namespace ipregel::query {

/// One immutable, resident version of the service's graph: the CSR itself
/// plus everything the serving layer derives from it once per load instead
/// of once per query — structural stats (for reservation estimates and
/// ops introspection) and the content fingerprint (the cache's epoch key
/// and the snapshot-binding identity).
///
/// Epochs are shared and immutable by construction: every accessor is
/// const, the graph is owned by value, and consumers only ever see a
/// `shared_ptr<const GraphEpoch>`. Queries pin the epoch they were
/// admitted against; a reload publishes a NEW epoch rather than mutating
/// this one, and the old epoch's memory is returned exactly when its last
/// pinned query drains (shared_ptr refcount zero) — the service-owned
/// lifetime that replaces the old "caller keeps the CsrGraph alive"
/// contract of JobManager::submit(const CsrGraph&).
class GraphEpoch {
 public:
  /// Takes ownership of a fully built CSR. Build it with
  /// `build_in_edges = true` to serve PPR: the broker runs PPR on the
  /// pull combiner, so on an epoch without in-edges every PPR query
  /// resolves kFailed (BFS-family queries are unaffected). Computes stats
  /// and fingerprint eagerly — O(E), once per reload, never on a query
  /// path.
  GraphEpoch(graph::CsrGraph g, std::uint64_t id);

  [[nodiscard]] const graph::CsrGraph& graph() const noexcept {
    return graph_;
  }
  [[nodiscard]] const graph::GraphStats& stats() const noexcept {
    return stats_;
  }
  /// Content fingerprint (ft::graph_fingerprint): identical graph content
  /// means identical fingerprint across reloads, so a reload that swaps
  /// in the same bytes keeps the result cache warm.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }
  /// Monotonic publish sequence number within one registry.
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  graph::CsrGraph graph_;
  graph::GraphStats stats_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t id_ = 0;
};

using EpochPtr = std::shared_ptr<const GraphEpoch>;

/// The epoch's graph as a shared_ptr whose control block owns the WHOLE
/// epoch (aliasing constructor) — what gets handed to
/// JobManager::submit(shared_ptr<const CsrGraph>, ...): as long as any
/// job holds the graph, the epoch it belongs to stays resident.
[[nodiscard]] inline std::shared_ptr<const graph::CsrGraph> graph_of(
    EpochPtr epoch) noexcept {
  const graph::CsrGraph* g = &epoch->graph();
  return std::shared_ptr<const graph::CsrGraph>(std::move(epoch), g);
}

/// Hosts the current epoch and swaps it atomically on reload.
///
/// `publish` is the only mutation: it builds the new epoch OUTSIDE the
/// lock (stats + fingerprint are O(E)), then swaps the current pointer
/// under it, so queries observe either the old epoch or the new one,
/// never a half-built state. The registry deliberately does NOT keep the
/// replaced epoch alive — in-flight queries that pinned it do.
class GraphRegistry {
 public:
  /// Publishes `g` as the new current epoch and returns it. When
  /// `replaced` is non-null it receives the previous epoch (null on the
  /// first publish) — the hook QueryService uses to invalidate the
  /// replaced epoch's cache entries.
  EpochPtr publish(graph::CsrGraph g, EpochPtr* replaced = nullptr);

  /// The current epoch, or null before the first publish.
  [[nodiscard]] EpochPtr current() const;

  /// Fingerprint of the current epoch, 0 before the first publish.
  [[nodiscard]] std::uint64_t current_fingerprint() const;

  /// Number of publish() calls so far.
  [[nodiscard]] std::size_t published() const;

 private:
  mutable std::mutex mu_;
  EpochPtr current_;
  std::uint64_t next_id_ = 1;
  std::size_t published_ = 0;
};

}  // namespace ipregel::query
