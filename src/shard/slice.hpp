#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/program_traits.hpp"
#include "graph/csr.hpp"
#include "shard/partition.hpp"

namespace ipregel::shard {

/// SnapshotMeta::combiner tag of per-shard snapshots — a value no
/// single-process CombinerKind uses, so an engine resume can never mistake
/// a shard slice for whole-run state even before the fingerprint check
/// fires.
inline constexpr std::uint8_t kShardCombinerTag = 0xF5;

/// One shard's slots of a graph as an edge source (EdgeSource in
/// core/engine.hpp). The engine's slots are the shard's local indices:
/// local index `li` is the li-th owned slot in ascending slot order, under
/// every partition scheme, so an engine over a slice holds O(owned slots)
/// of vertex state and computes in ascending slot order. Vertex ids and
/// neighbour lists stay global.
///
/// Snapshots of an engine over a slice carry kShardCombinerTag, the first
/// owned slot, and a program fingerprint bound to the shard topology
/// (shard_fingerprint), so no other topology, shard or whole-run engine
/// accepts them.
class ShardSlice {
 public:
  /// Holds references to `graph` and `part`, which must outlive it.
  /// `graph_fp` is the whole graph's content fingerprint and `bound_fp`
  /// the shard-bound program fingerprint its snapshots carry.
  ShardSlice(const graph::CsrGraph& graph, const ShardPartition& part,
             std::size_t me, std::uint64_t graph_fp, std::uint64_t bound_fp)
      : graph_(graph),
        part_(part),
        owned_(part.owned_slots(me)),
        graph_fp_(graph_fp),
        bound_fp_(bound_fp) {}

  [[nodiscard]] const graph::CsrGraph& whole() const noexcept {
    return graph_;
  }
  [[nodiscard]] const ShardPartition& partition() const noexcept {
    return part_;
  }
  /// Global slot of every local index, ascending.
  [[nodiscard]] const std::vector<std::size_t>& owned_slots() const noexcept {
    return owned_;
  }

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return graph_.num_vertices();
  }
  [[nodiscard]] std::size_t num_slots() const noexcept {
    return owned_.size();
  }
  [[nodiscard]] std::size_t first_slot() const noexcept { return 0; }
  [[nodiscard]] graph::eid_t num_edges() const noexcept {
    return graph_.num_edges();
  }
  /// Slice engines push only; nothing gathers from in-neighbours.
  [[nodiscard]] bool has_in_edges() const noexcept { return false; }

  /// Local index of an OWNED vertex (routing a message to any vertex goes
  /// through ShardOutboxes instead).
  [[nodiscard]] std::size_t slot_of(graph::vid_t id) const noexcept {
    return part_.local_index(graph_.slot_of(id));
  }
  [[nodiscard]] graph::vid_t id_of(std::size_t li) const noexcept {
    return graph_.id_of(owned_[li]);
  }
  [[nodiscard]] std::size_t out_degree(std::size_t li) const noexcept {
    return graph_.out_degree(owned_[li]);
  }
  [[nodiscard]] std::span<const graph::vid_t> out_neighbours(
      std::size_t li) const noexcept {
    return graph_.out_neighbours(owned_[li]);
  }
  [[nodiscard]] std::span<const graph::weight_t> out_weights(
      std::size_t li) const noexcept {
    return graph_.out_weights(owned_[li]);
  }
  template <typename Fn>
  void for_each_out_target(std::size_t li, Fn&& fn) const {
    for (const graph::vid_t v : graph_.out_neighbours(owned_[li])) {
      fn(v);
    }
  }
  template <typename Fn>
  void for_each_in_neighbour(std::size_t li, Fn&& fn) const {
    graph_.for_each_in_neighbour(owned_[li], fn);
  }

  [[nodiscard]] SnapshotIdentity snapshot_identity() const noexcept {
    return {kShardCombinerTag, owned_.empty() ? 0 : owned_.front(), graph_fp_,
            bound_fp_};
  }

 private:
  const graph::CsrGraph& graph_;
  const ShardPartition& part_;
  std::vector<std::size_t> owned_;
  std::uint64_t graph_fp_;
  std::uint64_t bound_fp_;
};

/// Bytes of one outbox frame entry: (u32 local index, Msg).
template <typename Msg>
inline constexpr std::size_t kFrameEntryBytes =
    sizeof(std::uint32_t) + sizeof(Msg);

/// The message destination of a slice engine (RemoteDestination in
/// core/engine.hpp): one dense outbox per destination shard, itself
/// included, each a (message, flag) pair per slot that shard owns. A
/// delivery combines into its recipient's outbox slot, in the order the
/// sender computes (ascending local slot, then CSR order), so each frame's
/// bytes are a deterministic function of the sender's state.
template <VertexProgram Program>
class ShardOutboxes {
 public:
  using Msg = typename Program::message_type;

  explicit ShardOutboxes(const ShardSlice& slice)
      : graph_(&slice.whole()), part_(&slice.partition()) {
    out_.resize(part_->shards());
    for (std::size_t d = 0; d < part_->shards(); ++d) {
      out_[d].msg.resize(part_->size(d));
      out_[d].flag.assign(part_->size(d), 0);
    }
  }

  void deliver(graph::vid_t dst, const Msg& m) {
    const std::size_t slot = graph_->slot_of(dst);
    Outbox& ob = out_[part_->shard_of_slot(slot)];
    const std::size_t li = part_->local_index(slot);
    if (ob.flag[li] != 0) {
      Program::combine(ob.msg[li], m);
    } else {
      ob.msg[li] = m;
      ob.flag[li] = 1;
      ++ob.count;
    }
  }

  void reset() {
    for (Outbox& ob : out_) {
      std::fill(ob.flag.begin(), ob.flag.end(), std::uint8_t{0});
      ob.count = 0;
    }
  }

  /// Serialises and clears the outbox for destination shard `dst`:
  /// [u64 count] then `count` (u32 local-dst-index, Msg) entries in
  /// ascending index order. Deterministic bytes for deterministic input —
  /// the redo-after-crash path replays identical frames.
  [[nodiscard]] std::vector<std::uint8_t> take_outbox(std::size_t dst) {
    constexpr std::size_t kEntry = kFrameEntryBytes<Msg>;
    Outbox& ob = out_[dst];
    std::vector<std::uint8_t> payload(sizeof(std::uint64_t) +
                                      ob.count * kEntry);
    std::uint8_t* p = payload.data();
    const std::uint64_t count = ob.count;
    std::memcpy(p, &count, sizeof(count));
    p += sizeof(count);
    if (ob.count != 0) {
      for (std::uint32_t i = 0; i < ob.flag.size(); ++i) {
        if (ob.flag[i] == 0) {
          continue;
        }
        std::memcpy(p, &i, sizeof(i));
        std::memcpy(p + sizeof(i), &ob.msg[i], sizeof(Msg));
        p += kEntry;
        ob.flag[i] = 0;
      }
      ob.count = 0;
    }
    return payload;
  }

 private:
  struct Outbox {
    std::vector<Msg> msg;
    std::vector<std::uint8_t> flag;
    std::size_t count = 0;
  };

  const graph::CsrGraph* graph_;
  const ShardPartition* part_;
  std::vector<Outbox> out_;
};

/// The engine a shard worker runs: the push combiner over its slice, every
/// delivery into the per-shard outboxes. Single-threaded, so the spinlock
/// combiner's locks are never contended: compute delivers only into the
/// outboxes, and frames arrive through Engine::receive between steps.
template <VertexProgram Program>
using SliceEngine = Engine<Program, CombinerKind::kSpinlockPush, false,
                           ShardSlice, ShardOutboxes<Program>>;

/// Applies one outbox frame to `engine`: every entry combines into its
/// recipient's mailbox for the engine's next step. Frames must be applied
/// in ascending source-shard order for bit-reproducible folds; the
/// worker's cursor machinery guarantees it.
template <VertexProgram Program>
void apply_frame(std::span<const std::uint8_t> payload,
                 SliceEngine<Program>& engine) {
  using Msg = typename Program::message_type;
  const std::uint8_t* p = payload.data();
  std::uint64_t count = 0;
  std::memcpy(&count, p, sizeof(count));
  p += sizeof(count);
  for (std::uint64_t e = 0; e < count; ++e) {
    std::uint32_t li = 0;
    Msg m;
    std::memcpy(&li, p, sizeof(li));
    std::memcpy(&m, p + sizeof(li), sizeof(Msg));
    p += kFrameEntryBytes<Msg>;
    engine.receive(li, m);
  }
}

}  // namespace ipregel::shard
