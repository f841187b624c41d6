// In-process unit tests of the engine a shard worker runs (SliceEngine:
// the Engine over a ShardSlice, delivering into ShardOutboxes). A
// hand-rolled BSP loop drives N slice engines against each other with
// plain byte vectors (no processes, no rings) and must reproduce the
// single-process engine exactly. Also covers the per-shard snapshot
// capture/validate/restore cycle and the lightweight resend rebuild.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_dangling.hpp"
#include "apps/sssp.hpp"
#include "core/aggregator_traits.hpp"
#include "shard/slice.hpp"
#include "test_util.hpp"

namespace ipregel::shard {
namespace {

/// A worker's engine over `slice` (one thread, like the worker's).
template <typename Program>
SliceEngine<Program> slice_engine(const ShardSlice& slice, Program program) {
  return SliceEngine<Program>(slice, std::move(program),
                              EngineOptions{.threads = 1}, nullptr,
                              ShardOutboxes<Program>(slice));
}

/// The synchronous reference harness: every engine steps, all frames
/// cross, one barrier per superstep, applied in ascending source order
/// exactly as the worker's cursor machinery does. Slices bind snapshots
/// to `graph_fp` and the shard-bound `program_fp`.
template <typename Program>
struct InProcessRun {
  using Value = typename Program::value_type;

  InProcessRun(const graph::CsrGraph& g, Program program, std::size_t shards,
               std::uint64_t graph_fp = 0, std::uint64_t program_fp = 0)
      : part(g, shards) {
    for (std::size_t s = 0; s < part.shards(); ++s) {
      slices.emplace_back(g, part, s, graph_fp,
                          shard_fingerprint(program_fp, part.shards(), s));
      engines.emplace_back(slices.back(), program,
                           EngineOptions{.threads = 1}, nullptr,
                           ShardOutboxes<Program>(slices.back()));
      engines.back().initialize();
    }
  }

  /// Runs one superstep; returns true while the computation is live.
  bool superstep_once() {
    const std::size_t n = engines.size();
    std::uint64_t sent = 0;
    std::uint64_t active = 0;
    for (auto& e : engines) {
      const SuperstepStats counts = e.step();
      sent += counts.messages_sent;
      active += counts.remaining_active;
    }
    // frames[src][dst], applied per destination in ascending src order.
    std::vector<std::vector<std::vector<std::uint8_t>>> frames(n);
    for (std::size_t src = 0; src < n; ++src) {
      for (std::size_t dst = 0; dst < n; ++dst) {
        frames[src].push_back(engines[src].destination().take_outbox(dst));
      }
    }
    for (std::size_t dst = 0; dst < n; ++dst) {
      for (std::size_t src = 0; src < n; ++src) {
        apply_frame<Program>(frames[src][dst], engines[dst]);
      }
    }
    if constexpr (HasSerializableAggregator<Program>) {
      auto agg = Program::aggregate_identity();
      for (auto& e : engines) {
        const auto bytes = aggregate_to_bytes<Program>(e.aggregated());
        Program::aggregate(agg, aggregate_from_bytes<Program>(bytes));
      }
      const auto folded = aggregate_to_bytes<Program>(agg);
      for (auto& e : engines) {
        e.set_aggregated(aggregate_from_bytes<Program>(folded));
      }
    }
    ++superstep;
    return sent != 0 || active != 0;
  }

  std::vector<Value> run_to_completion(std::size_t cap = 10'000) {
    while (superstep_once() && superstep < cap) {
    }
    return values();
  }

  [[nodiscard]] std::vector<Value> values() const {
    std::vector<Value> out;
    for (const auto& e : engines) {
      out.insert(out.end(), e.values().begin(), e.values().end());
    }
    return out;
  }

  ShardPartition part;
  // Engines hold references to their slices and slices to `part`: deques
  // never move an element once placed.
  std::deque<ShardSlice> slices;
  std::deque<SliceEngine<Program>> engines;
  std::uint64_t superstep = 0;
};

/// Engine reference restricted to the populated slots, in slot order —
/// comparable with InProcessRun::values() concatenation.
template <typename Program>
std::vector<typename Program::value_type> engine_populated(
    const graph::CsrGraph& g, Program program) {
  std::vector<typename Program::value_type> values;
  EngineOptions opt;
  opt.threads = 1;
  (void)run_version(g, program, VersionId{CombinerKind::kMutexPush, false},
                    opt, nullptr, &values);
  return {values.begin() + static_cast<std::ptrdiff_t>(g.first_slot()),
          values.begin() + static_cast<std::ptrdiff_t>(g.num_slots())};
}

TEST(ShardEngine, HashminMatchesTheEngineAcrossShardCounts) {
  const auto g = testing::make_graph(
      graph::rmat(7, 4, graph::RmatOptions{.seed = 8}));
  const auto want = engine_populated(g, apps::Hashmin{});
  for (const std::size_t shards : {1u, 2u, 4u}) {
    InProcessRun<apps::Hashmin> run(g, apps::Hashmin{}, shards);
    EXPECT_EQ(run.run_to_completion(), want) << shards << " shards";
  }
}

TEST(ShardEngine, PageRankSingleShardIsBitIdentical) {
  const auto g = testing::make_graph(
      graph::rmat(6, 4, graph::RmatOptions{.seed = 2}));
  apps::PageRank pr;
  pr.rounds = 8;
  const auto want = engine_populated(g, pr);
  InProcessRun<apps::PageRank> run(g, pr, 1);
  const auto got = run.run_to_completion();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "slot offset " << i;  // bitwise
  }
}

TEST(ShardEngine, DanglingAggregatorFoldsAcrossEngines) {
  const auto g = testing::make_graph(
      graph::rmat(6, 3, graph::RmatOptions{.seed = 17}));
  apps::PageRankDangling pr;
  pr.rounds = 8;
  const auto want = engine_populated(g, pr);
  InProcessRun<apps::PageRankDangling> run(g, pr, 3);
  const auto got = run.run_to_completion();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << "slot offset " << i;
  }
}

TEST(ShardEngine, HeavyweightCaptureRestoreRoundTrips) {
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  const std::uint64_t graph_fp = 0x1111;
  InProcessRun<apps::Sssp> run(g, apps::Sssp{}, 2, graph_fp, 0x2222);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(run.superstep_once());
  }
  // Capture both shards "about to compute superstep 4", clone into fresh
  // engines, and continue both runs to completion.
  InProcessRun<apps::Sssp> clone(g, apps::Sssp{}, 2, graph_fp, 0x2222);
  for (std::size_t s = 0; s < 2; ++s) {
    const auto snap =
        run.engines[s].capture_state(ft::CheckpointMode::kHeavyweight);
    EXPECT_EQ(snap.meta.superstep, run.superstep);
    EXPECT_EQ(snap.meta.combiner, kShardCombinerTag);
    EXPECT_EQ(snap.meta.first_slot, run.part.slots(s).begin);
    EXPECT_EQ(snap.meta.program_fingerprint, shard_fingerprint(0x2222, 2, s));
    ASSERT_EQ(clone.engines[s].snapshot_mismatch(snap), nullptr);
    clone.engines[s].restore_state(snap);
  }
  clone.superstep = run.superstep;
  EXPECT_EQ(run.run_to_completion(), clone.run_to_completion());
}

TEST(ShardEngine, LightweightRestoreRebuildsTheInboxViaResend) {
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  InProcessRun<apps::Sssp> run(g, apps::Sssp{}, 2);
  std::vector<std::vector<std::vector<std::uint8_t>>> last_frames;
  // Drive manually so the frames of the last completed superstep are
  // retained — the worker's RetainedGen, in miniature.
  for (int step = 0; step < 5; ++step) {
    for (auto& e : run.engines) {
      (void)e.step();
    }
    last_frames.assign(2, {});
    for (std::size_t src = 0; src < 2; ++src) {
      for (std::size_t dst = 0; dst < 2; ++dst) {
        last_frames[src].push_back(
            run.engines[src].destination().take_outbox(dst));
      }
    }
    for (std::size_t dst = 0; dst < 2; ++dst) {
      for (std::size_t src = 0; src < 2; ++src) {
        apply_frame<apps::Sssp>(last_frames[src][dst], run.engines[dst]);
      }
    }
    ++run.superstep;
  }
  // Shard 1 dies and comes back from a lightweight snapshot taken at
  // exactly this superstep: values + halted only.
  const std::uint64_t resume = run.superstep;
  const auto snap =
      run.engines[1].capture_state(ft::CheckpointMode::kLightweight);
  EXPECT_EQ(snap.meta.superstep, resume);
  EXPECT_TRUE(snap.inbox.empty());
  const ShardSlice revived_slice(g, run.part, 1, 0, shard_fingerprint(0, 2, 1));
  auto revived = slice_engine(revived_slice, apps::Sssp{});
  ASSERT_EQ(revived.snapshot_mismatch(snap), nullptr);
  // The restore replays resend as superstep resume-1 into the outboxes.
  revived.restore_state(snap);
  // Rebuild the inbox: survivor's republished frame for source 0, own
  // regeneration at source position 1, the rest of the replay dropped.
  apply_frame<apps::Sssp>(last_frames[0][1], revived);
  apply_frame<apps::Sssp>(revived.destination().take_outbox(1), revived);
  revived.destination().reset();
  // The survivor (with its true state) and the revived engine must now
  // run identically to an undisturbed run. Engines hold a slice
  // reference, so drive the pair through pointers rather than moving them
  // into a fresh harness.
  std::vector<SliceEngine<apps::Sssp>*> pair = {&run.engines[0], &revived};
  for (;;) {
    std::uint64_t sent = 0;
    std::uint64_t active = 0;
    for (auto* e : pair) {
      const SuperstepStats counts = e->step();
      sent += counts.messages_sent;
      active += counts.remaining_active;
    }
    std::vector<std::vector<std::vector<std::uint8_t>>> frames(2);
    for (std::size_t src = 0; src < 2; ++src) {
      for (std::size_t dst = 0; dst < 2; ++dst) {
        frames[src].push_back(pair[src]->destination().take_outbox(dst));
      }
    }
    for (std::size_t dst = 0; dst < 2; ++dst) {
      for (std::size_t src = 0; src < 2; ++src) {
        apply_frame<apps::Sssp>(frames[src][dst], *pair[dst]);
      }
    }
    if (sent == 0 && active == 0) {
      break;
    }
  }
  InProcessRun<apps::Sssp> undisturbed(g, apps::Sssp{}, 2);
  const auto want = undisturbed.run_to_completion();
  std::vector<std::uint32_t> got;
  for (auto* e : pair) {
    got.insert(got.end(), e->values().begin(), e->values().end());
  }
  EXPECT_EQ(got, want);
}

TEST(ShardEngine, ValidateRejectsForeignSlices) {
  const auto g = testing::make_graph(
      graph::rmat(6, 4, graph::RmatOptions{.seed = 5}));
  const ShardPartition two(g, 2);
  const std::uint64_t fp2_0 = shard_fingerprint(0xAB, 2, 0);
  const std::uint64_t fp2_1 = shard_fingerprint(0xAB, 2, 1);
  const ShardSlice s0(g, two, 0, 0x99, fp2_0);
  const ShardSlice s1(g, two, 1, 0x99, fp2_1);
  auto e0 = slice_engine(s0, apps::Hashmin{});
  auto e1 = slice_engine(s1, apps::Hashmin{});
  e0.initialize();
  e1.initialize();

  // A slice from the right shard under the right binding: accepted.
  const auto good = e0.capture_state(ft::CheckpointMode::kHeavyweight);
  EXPECT_EQ(e0.snapshot_mismatch(good), nullptr);

  // Wrong graph.
  const ShardSlice other_graph(g, two, 0, 0x77, fp2_0);
  EXPECT_NE(slice_engine(other_graph, apps::Hashmin{}).snapshot_mismatch(good),
            nullptr);
  // Wrong shard topology: same program, 4 shards instead of 2. The
  // fingerprint disagrees.
  const ShardSlice four(g, two, 0, 0x99, shard_fingerprint(0xAB, 4, 0));
  EXPECT_NE(slice_engine(four, apps::Hashmin{}).snapshot_mismatch(good),
            nullptr);
  // Another shard's slice under this shard's validator: range mismatch.
  const auto foreign = e1.capture_state(ft::CheckpointMode::kHeavyweight);
  EXPECT_NE(e0.snapshot_mismatch(foreign), nullptr);
  // A whole-run engine snapshot (no shard combiner tag) must be rejected
  // even when everything else is zeroed out.
  auto whole = good;
  whole.meta.combiner = 0;
  whole.meta.program_fingerprint = 0;
  EXPECT_NE(e0.snapshot_mismatch(whole), nullptr);
  // And a slice is never restorable as whole-run state.
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> engine(g);
  EXPECT_NE(engine.snapshot_mismatch(good), nullptr);
}

}  // namespace
}  // namespace ipregel::shard
