// Zero-failure equivalence of the multi-process sharded runtime against
// the single-process engine and the serial references: same graphs, same
// programs, 1/2/3 shards. Integer min-combiner apps must match the engine
// BIT-IDENTICALLY (the shard partition reproduces the engine's thread
// shares and per-destination combine order); floating-point PageRank is
// bit-identical at one shard and tolerance-equal beyond (cross-shard
// delivery re-associates the sum). Also covers the cross-shard aggregator
// reduction (FTPregel's dangling-mass PageRank) and option validation.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/label_propagation.hpp"
#include "apps/pagerank.hpp"
#include "apps/pagerank_dangling.hpp"
#include "apps/serial_reference.hpp"
#include "apps/sssp.hpp"
#include "io/faulty_vfs.hpp"
#include "shard/coordinator.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

class TempDir {
 public:
  TempDir() {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string("ipregel_") + info->test_suite_name() + "_" +
             info->name());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// The engine run every sharded result is measured against: one thread,
/// mutex-push combiner — the deterministic schedule the shard workers
/// reproduce slot for slot.
template <typename Program>
std::vector<typename Program::value_type> engine_reference(
    const graph::CsrGraph& g, Program program, RunResult* result = nullptr) {
  std::vector<typename Program::value_type> values;
  EngineOptions opt;
  opt.threads = 1;
  const RunResult r = run_version(
      g, program, VersionId{CombinerKind::kMutexPush, false}, opt, nullptr,
      &values);
  if (result != nullptr) {
    *result = r;
  }
  return values;
}

template <typename Value>
void expect_slots_eq(const graph::CsrGraph& g, const std::vector<Value>& got,
                     const std::vector<Value>& want, const std::string& tag) {
  ASSERT_GE(got.size(), g.num_slots()) << tag;
  ASSERT_GE(want.size(), g.num_slots()) << tag;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(got[s], want[s]) << tag << " at slot " << s << " (id "
                               << g.id_of(s) << ")";
  }
}

template <typename Value>
void expect_slots_near(const graph::CsrGraph& g,
                       const std::vector<Value>& got,
                       const std::vector<Value>& want, double tol,
                       const std::string& tag) {
  ASSERT_GE(got.size(), g.num_slots()) << tag;
  ASSERT_GE(want.size(), g.num_slots()) << tag;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_NEAR(got[s], want[s], tol)
        << tag << " at slot " << s << " (id " << g.id_of(s) << ")";
  }
}

TEST(ShardRuns, HashminMatchesEngineBitIdentically) {
  const auto g = testing::make_graph(
      graph::rmat(8, 4, graph::RmatOptions{.seed = 3}));
  RunResult engine_result;
  const auto want = engine_reference(g, apps::Hashmin{}, &engine_result);
  const auto serial = apps::serial::hashmin(g);
  for (const std::size_t shards : {1u, 2u, 3u}) {
    shard::ShardOptions opt;
    opt.num_shards = shards;
    std::vector<graph::vid_t> got;
    const auto outcome = shard::run_sharded(g, apps::Hashmin{}, opt, &got);
    ASSERT_TRUE(outcome.ok())
        << shards << " shards: " << outcome.error->what();
    expect_slots_eq(g, got, want, "hashmin/" + std::to_string(shards));
    expect_slots_eq(g, got, serial,
                    "hashmin-serial/" + std::to_string(shards));
    EXPECT_EQ(outcome.result.supersteps, engine_result.supersteps) << shards;
    EXPECT_EQ(outcome.result.total_messages, engine_result.total_messages)
        << shards;
    EXPECT_EQ(outcome.shard.respawns, 0u);
    EXPECT_EQ(outcome.shard.heartbeat_kills, 0u);
  }
}

TEST(ShardRuns, SsspMatchesEngineBitIdentically) {
  // A lattice: long diameter, so the run crosses many barriers with a
  // moving wavefront that migrates between shards.
  const auto g =
      testing::make_graph(graph::grid_2d(12, 12, graph::GridOptions{}));
  RunResult engine_result;
  const auto want = engine_reference(g, apps::Sssp{}, &engine_result);
  const auto serial = apps::serial::sssp_unit(g, 2);
  for (const std::size_t shards : {1u, 2u, 3u}) {
    shard::ShardOptions opt;
    opt.num_shards = shards;
    std::vector<std::uint32_t> got;
    const auto outcome = shard::run_sharded(g, apps::Sssp{}, opt, &got);
    ASSERT_TRUE(outcome.ok())
        << shards << " shards: " << outcome.error->what();
    expect_slots_eq(g, got, want, "sssp/" + std::to_string(shards));
    expect_slots_eq(g, got, serial, "sssp-serial/" + std::to_string(shards));
    EXPECT_EQ(outcome.result.supersteps, engine_result.supersteps) << shards;
  }
}

TEST(ShardRuns, LabelPropagationMatchesEngineAndSerial) {
  const auto g = testing::make_graph(
      graph::rmat(8, 6, graph::RmatOptions{.seed = 9}));
  const auto want = engine_reference(g, apps::LabelPropagation{});
  const auto serial = apps::serial::label_propagation(g);
  for (const std::size_t shards : {1u, 2u, 3u}) {
    shard::ShardOptions opt;
    opt.num_shards = shards;
    std::vector<std::uint64_t> got;
    const auto outcome =
        shard::run_sharded(g, apps::LabelPropagation{}, opt, &got);
    ASSERT_TRUE(outcome.ok())
        << shards << " shards: " << outcome.error->what();
    expect_slots_eq(g, got, want, "lp/" + std::to_string(shards));
    expect_slots_eq(g, got, serial, "lp-serial/" + std::to_string(shards));
  }
}

TEST(ShardRuns, PageRankOneShardIsBitIdenticalToTheEngine) {
  const auto g = testing::make_graph(
      graph::rmat(7, 4, graph::RmatOptions{.seed = 21}));
  apps::PageRank pr;
  pr.rounds = 10;
  const auto want = engine_reference(g, pr);
  shard::ShardOptions opt;
  opt.num_shards = 1;
  std::vector<double> got;
  const auto outcome = shard::run_sharded(g, pr, opt, &got);
  ASSERT_TRUE(outcome.ok()) << outcome.error->what();
  // Bit-identical, not merely close: one shard reproduces the engine's
  // exact per-destination fold order, doubles included.
  expect_slots_eq(g, got, want, "pagerank/1shard");
}

TEST(ShardRuns, PageRankMultiShardMatchesWithinReassociationNoise) {
  const auto g = testing::make_graph(
      graph::rmat(7, 4, graph::RmatOptions{.seed = 21}));
  apps::PageRank pr;
  pr.rounds = 10;
  const auto want = engine_reference(g, pr);
  for (const std::size_t shards : {2u, 3u}) {
    shard::ShardOptions opt;
    opt.num_shards = shards;
    std::vector<double> got;
    const auto outcome = shard::run_sharded(g, pr, opt, &got);
    ASSERT_TRUE(outcome.ok())
        << shards << " shards: " << outcome.error->what();
    expect_slots_near(g, got, want, 1e-12,
                      "pagerank/" + std::to_string(shards));
  }
}

TEST(ShardRuns, DanglingAggregatorMatchesSingleProcessAndSerial) {
  // Satellite: FTPregel's dangling-mass PageRank as a first-class
  // cross-shard reduction. The per-worker partials ride the barrier
  // messages; the coordinator folds them in shard order and ships the
  // result back with the release.
  const auto g = testing::make_graph(
      graph::rmat(7, 3, graph::RmatOptions{.seed = 33}));
  apps::PageRankDangling pr;
  pr.rounds = 12;
  const auto want = engine_reference(g, pr);
  const auto serial = apps::serial::pagerank_dangling(g, pr.rounds);
  for (const std::size_t shards : {1u, 2u, 3u}) {
    shard::ShardOptions opt;
    opt.num_shards = shards;
    std::vector<double> got;
    const auto outcome = shard::run_sharded(g, pr, opt, &got);
    ASSERT_TRUE(outcome.ok())
        << shards << " shards: " << outcome.error->what();
    const double tol = shards == 1 ? 0.0 : 1e-12;
    if (shards == 1) {
      expect_slots_eq(g, got, want, "dangling/1shard");
    } else {
      expect_slots_near(g, got, want, tol,
                        "dangling/" + std::to_string(shards));
    }
    expect_slots_near(g, got, serial, 1e-9,
                      "dangling-serial/" + std::to_string(shards));
  }
}

TEST(ShardRuns, CheckpointingDoesNotPerturbTheResult) {
  // Checkpoints on, no faults: the run must be byte-for-byte the run
  // without checkpoints, in both modes.
  const auto g =
      testing::make_graph(graph::grid_2d(10, 10, graph::GridOptions{}));
  const auto want = engine_reference(g, apps::Sssp{});
  for (const auto mode : {ft::CheckpointMode::kHeavyweight,
                          ft::CheckpointMode::kLightweight}) {
    TempDir dir;
    shard::ShardOptions opt;
    opt.num_shards = 2;
    opt.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
    opt.checkpoint.mode = mode;
    opt.checkpoint.every = 2;
    opt.checkpoint.directory = dir.str();
    std::vector<std::uint32_t> got;
    const auto outcome = shard::run_sharded(g, apps::Sssp{}, opt, &got);
    ASSERT_TRUE(outcome.ok()) << outcome.error->what();
    expect_slots_eq(g, got, want,
                    std::string("ckpt/") + std::string(to_string(mode)));
    EXPECT_EQ(outcome.shard.respawns, 0u);
    EXPECT_EQ(outcome.shard.snapshot_recoveries, 0u);
    // Each shard owns its own snapshot subdirectory.
    EXPECT_TRUE(std::filesystem::exists(dir.str() + "/shard0"));
    EXPECT_TRUE(std::filesystem::exists(dir.str() + "/shard1"));
  }
}

TEST(ShardRuns, DesolateAddressingSurvivesSharding) {
  // Shifted ids exercise first_slot != 0 in the partition arithmetic and
  // the board offsets.
  auto edges = graph::rmat(6, 4, graph::RmatOptions{.seed = 4});
  graph::shift_ids(edges, 1000);
  const auto g =
      testing::make_graph(edges, graph::AddressingMode::kDesolate);
  const auto want = engine_reference(g, apps::Hashmin{});
  shard::ShardOptions opt;
  opt.num_shards = 3;
  std::vector<graph::vid_t> got;
  const auto outcome = shard::run_sharded(g, apps::Hashmin{}, opt, &got);
  ASSERT_TRUE(outcome.ok()) << outcome.error->what();
  expect_slots_eq(g, got, want, "hashmin/desolate");
}

TEST(ShardRuns, HashPartitionIsBitIdenticalForMinCombineApps) {
  // The hash scheme assigns slots by mix64(slot) % shards instead of
  // contiguous blocks. Min-combiner folds are order-insensitive ONLY
  // because each destination's messages still fold in ascending-source,
  // ascending-local-slot order — which owned_slots() preserves under
  // hashing (local indices ascend in slot order). So the result must
  // stay bit-identical to the engine at every shard count.
  const auto g = testing::make_graph(
      graph::rmat(8, 4, graph::RmatOptions{.seed = 3}));
  const auto want_hm = engine_reference(g, apps::Hashmin{});
  const auto want_sp = engine_reference(g, apps::Sssp{});
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    shard::ShardOptions opt;
    opt.num_shards = shards;
    opt.partition = shard::PartitionScheme::kHash;
    std::vector<graph::vid_t> got_hm;
    const auto hm = shard::run_sharded(g, apps::Hashmin{}, opt, &got_hm);
    ASSERT_TRUE(hm.ok()) << shards << " shards: " << hm.error->what();
    expect_slots_eq(g, got_hm, want_hm,
                    "hashmin-hash/" + std::to_string(shards));

    std::vector<std::uint32_t> got_sp;
    const auto sp = shard::run_sharded(g, apps::Sssp{}, opt, &got_sp);
    ASSERT_TRUE(sp.ok()) << shards << " shards: " << sp.error->what();
    expect_slots_eq(g, got_sp, want_sp,
                    "sssp-hash/" + std::to_string(shards));
  }
}

TEST(ShardRuns, HashPartitionOverTcpMatchesToo) {
  // Both selectable axes at once: hash partitioning over the TCP
  // transport, still bit-identical to the engine.
  const auto g =
      testing::make_graph(graph::grid_2d(8, 8, graph::GridOptions{}));
  const auto want = engine_reference(g, apps::Sssp{});
  shard::ShardOptions opt;
  opt.num_shards = 3;
  opt.partition = shard::PartitionScheme::kHash;
  opt.transport = shard::TransportKind::kTcp;
  std::vector<std::uint32_t> got;
  const auto outcome = shard::run_sharded(g, apps::Sssp{}, opt, &got);
  ASSERT_TRUE(outcome.ok()) << outcome.error->what();
  expect_slots_eq(g, got, want, "sssp-hash-tcp/3");
}

/// FNV-1a over the raw bytes of the populated slots' values.
template <typename Value>
std::uint64_t value_digest(const graph::CsrGraph& g,
                           const std::vector<Value>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(
      values.data() + g.first_slot());
  for (std::size_t i = 0; i < (g.num_slots() - g.first_slot()) * sizeof(Value);
       ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

TEST(ShardRuns, PageRankMultiShardBytesArePinned) {
  // Beyond one shard, PageRank's double sums fold per source shard and
  // then across sources in ascending order. That order is fixed by the
  // shard count and partition scheme alone, not by the transport or the
  // schedule, so the result bytes are pinned: any change to the fold order
  // shows up here, not just one past the reassociation tolerance.
  const auto g = testing::make_graph(
      graph::rmat(9, 8, graph::RmatOptions{.seed = 41}));
  apps::PageRank pr;
  pr.rounds = 10;
  struct Pin {
    std::size_t shards;
    shard::PartitionScheme scheme;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {2, shard::PartitionScheme::kBlock, 0x0d2931c887ba8c82ULL},
      {4, shard::PartitionScheme::kBlock, 0x81f4401a6d26271bULL},
      {2, shard::PartitionScheme::kHash, 0xa4729017293afcfbULL},
      {4, shard::PartitionScheme::kHash, 0xc65c4f5c90d0f5f4ULL},
  };
  for (const Pin& pin : pins) {
    for (const auto transport :
         {shard::TransportKind::kShm, shard::TransportKind::kTcp}) {
      shard::ShardOptions opt;
      opt.num_shards = pin.shards;
      opt.partition = pin.scheme;
      opt.transport = transport;
      std::vector<double> got;
      const auto outcome = shard::run_sharded(g, pr, opt, &got);
      const std::string tag =
          std::to_string(pin.shards) + " shards, " +
          (pin.scheme == shard::PartitionScheme::kHash ? "hash" : "block") +
          ", " + (transport == shard::TransportKind::kTcp ? "tcp" : "shm");
      ASSERT_TRUE(outcome.ok()) << tag << ": " << outcome.error->what();
      ASSERT_GE(got.size(), g.num_slots()) << tag;
      EXPECT_EQ(value_digest(g, got), pin.digest)
          << tag << ": 0x" << std::hex << value_digest(g, got);
    }
  }
}

TEST(ShardRuns, RejectsLightweightCheckpointsForAggregatorPrograms) {
  const auto g = testing::make_graph(graph::cycle_graph(8));
  TempDir dir;
  shard::ShardOptions opt;
  opt.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  opt.checkpoint.mode = ft::CheckpointMode::kLightweight;
  opt.checkpoint.every = 1;
  opt.checkpoint.directory = dir.str();
  EXPECT_THROW(
      (void)shard::run_sharded(g, apps::PageRankDangling{}, opt, nullptr),
      std::invalid_argument);
}

TEST(ShardRuns, RejectsInMemoryVfsForShardCheckpoints) {
  // An in-memory Vfs lives inside the worker process it is meant to
  // revive — snapshots must go to the real filesystem.
  const auto g = testing::make_graph(graph::cycle_graph(8));
  io::FaultyVfs mem;
  TempDir dir;
  shard::ShardOptions opt;
  opt.checkpoint.trigger = ft::CheckpointTrigger::kEveryK;
  opt.checkpoint.every = 1;
  opt.checkpoint.directory = dir.str();
  opt.checkpoint.vfs = &mem;
  EXPECT_THROW((void)shard::run_sharded(g, apps::Sssp{}, opt, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace ipregel
