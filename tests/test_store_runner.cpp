// The headline contract of the beyond-RAM mode: a streaming superstep over
// a paged store — even under a cache budget several times smaller than the
// edge arrays — produces BIT-IDENTICAL results to the in-RAM engine, at
// any thread count, and every paging failure surfaces as a typed RunError.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "io/faulty_vfs.hpp"
#include "store/page_cache.hpp"
#include "store/paged_graph.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"
#include "store/streaming_runner.hpp"

namespace ipregel::store {
namespace {

using graph::CsrGraph;
using graph::EdgeList;
using io::FaultyVfs;

constexpr const char* kPath = "/run/graph.pages";
constexpr std::size_t kPage = 128;

CsrGraph make_graph(const EdgeList& edges) {
  return CsrGraph::build(
      edges, {.addressing = graph::AddressingMode::kOffset,
              .build_in_edges = true});
}

/// Bytes of the store's streamed (edge-sized) sections — what the ">= 4x
/// the cache budget" headline is measured against.
std::uint64_t streamed_bytes(const PagedStore& store) {
  return store.superblock().section(Section::kOutTargets).payload_bytes +
         store.superblock().section(Section::kInTargets).payload_bytes;
}

TEST(StreamingRunner, PullPageRankBitIdenticalToEngine) {
  const CsrGraph g = make_graph(graph::rmat(8, 8, {.seed = 21}));
  Engine<apps::PageRank, CombinerKind::kPull, false> engine(
      g, apps::PageRank{.rounds = 20});
  const RunResult ref = engine.run();

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // A budget ~1/4 of the streamed bytes AND a roomy one: the answer may
    // not depend on how often the cache had to evict.
    for (const std::size_t budget :
         {std::size_t{4} * kPage, std::size_t{1} << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      PageCache cache(store, {.budget_bytes = budget});
      PagedGraph pg(store, cache);
      StreamingRunner<apps::PageRank> runner(
          pg, apps::PageRank{.rounds = 20}, {.threads = threads});
      const PagedRunResult out = runner.run(StreamMode::kPull);
      ASSERT_EQ(out.run.supersteps, ref.supersteps);
      ASSERT_EQ(out.run.total_messages, ref.total_messages);
      ASSERT_EQ(out.run.total_executed_vertices,
                ref.total_executed_vertices);
      for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
        ASSERT_EQ(runner.values()[s], engine.values()[s])
            << "slot " << s;  // EXACT double equality: bit-identity
      }
      if (budget == std::size_t{4} * kPage) {
        // The tiny budget really was beyond-RAM: the streamed sections
        // exceed it 4x over and eviction actually happened.
        EXPECT_GE(streamed_bytes(store), 4 * budget);
        EXPECT_GT(out.cache.evictions, 0u);
      }
    }
  }
}

TEST(StreamingRunner, PushHashminBitIdenticalToEngine) {
  const CsrGraph g = make_graph(graph::rmat(7, 6, {.seed = 5}));
  Engine<apps::Hashmin, CombinerKind::kSpinlockPush, false> engine(g);
  const RunResult ref = engine.run();

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PageCache cache(store, {.budget_bytes = 4 * kPage});
    PagedGraph pg(store, cache);
    StreamingRunner<apps::Hashmin> runner(pg, apps::Hashmin{},
                                          {.threads = threads});
    const PagedRunResult out = runner.run(StreamMode::kPush);
    EXPECT_EQ(out.run.supersteps, ref.supersteps);
    EXPECT_EQ(out.run.total_messages, ref.total_messages);
    EXPECT_EQ(out.run.total_executed_vertices, ref.total_executed_vertices);
    for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
      ASSERT_EQ(runner.values()[s], engine.values()[s]) << "slot " << s;
    }
  }
}

TEST(StreamingRunner, OffsetAddressedIdsWork) {
  EdgeList edges = graph::cycle_graph(200);
  graph::shift_ids(edges, 5000);
  const CsrGraph g = make_graph(edges);
  Engine<apps::Hashmin, CombinerKind::kPull, false> engine(g);
  (void)engine.run();

  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * 64});
  PagedGraph pg(store, cache);
  StreamingRunner<apps::Hashmin> runner(pg);
  (void)runner.run(StreamMode::kPull);
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    ASSERT_EQ(runner.values()[s], engine.values()[s]) << "slot " << s;
  }
  EXPECT_EQ(runner.value_of(5000), 5000u);
}

TEST(StreamingRunner, ResultsIndependentOfCacheBudget) {
  // Same run under wildly different budgets (and with the degradation
  // ladder certainly engaging at the smallest): values must stay
  // bit-identical — degradation changes timings, never answers.
  const CsrGraph g = make_graph(graph::rmat(7, 8, {.seed = 9}));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);

  std::vector<double> reference;
  for (const std::size_t budget :
       {std::size_t{2} * kPage, std::size_t{8} * kPage, std::size_t{1} << 22}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    PageCache cache(store, {.budget_bytes = budget,
                            .thrash_window = 64,
                            .ladder_patience = 1});
    PagedGraph pg(store, cache);
    StreamingRunner<apps::PageRank> runner(pg, apps::PageRank{.rounds = 10});
    (void)runner.run(StreamMode::kPull);
    if (reference.empty()) {
      reference = runner.values();
    } else {
      ASSERT_EQ(runner.values(), reference);
    }
  }
}

TEST(StreamingRunner, PullModeValidatesItsPreconditions) {
  const CsrGraph g = CsrGraph::build(
      graph::cycle_graph(32),
      {.addressing = graph::AddressingMode::kOffset,
       .build_in_edges = false});
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * 64});
  PagedGraph pg(store, cache);
  StreamingRunner<apps::Hashmin> runner(pg);
  // No in-edge section in the store: the pull gather has nothing to
  // stream; push still works.
  EXPECT_THROW((void)runner.run(StreamMode::kPull), std::invalid_argument);
  EXPECT_NO_THROW((void)runner.run(StreamMode::kPush));
}

TEST(StreamingRunner, SuperstepCapIsReported) {
  const CsrGraph g = make_graph(graph::cycle_graph(64));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * 64});
  PagedGraph pg(store, cache);
  StreamingRunner<apps::PageRank> runner(pg, apps::PageRank{.rounds = 30},
                                         {.max_supersteps = 3});
  const PagedRunResult out = runner.run(StreamMode::kPull);
  EXPECT_TRUE(out.run.reached_superstep_cap);
  EXPECT_EQ(out.run.supersteps, 3u);
}

TEST(StreamingRunner, CancelTokenFailsTyped) {
  const CsrGraph g = make_graph(graph::cycle_graph(64));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = 64});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 4 * 64});
  PagedGraph pg(store, cache);
  std::atomic<bool> cancel{true};
  StreamingRunner<apps::PageRank> runner(pg, apps::PageRank{},
                                         {.cancel_token = &cancel});
  const RunOutcome out = runner.run_checked(StreamMode::kPull);
  ASSERT_TRUE(out.error.has_value());
  EXPECT_EQ(out.error->kind(), RunErrorKind::kCancelled);
}

TEST(StreamingRunner, UnservablePageFailsTypedNotHung) {
  // Tear the file so its last page can never be read whole: the run must
  // end in a typed kPageError once it reaches that page. With in-edges the
  // last page holds in-targets, which pull reaches in the gather, outside
  // compute(); without them it holds out-targets, which push reaches
  // inside compute(), where broadcast() streams them. Neither may surface
  // as a compute() exception.
  for (const StreamMode mode : {StreamMode::kPull, StreamMode::kPush}) {
    SCOPED_TRACE(mode == StreamMode::kPull ? "pull" : "push");
    const CsrGraph g = CsrGraph::build(
        graph::cycle_graph(256),
        {.addressing = graph::AddressingMode::kOffset,
         .build_in_edges = mode == StreamMode::kPull});
    FaultyVfs vfs;
    write_store(g, kPath, &vfs, {.page_bytes = 64});
    {
      std::vector<std::uint8_t> bytes = vfs.read_all(kPath);
      bytes.resize(bytes.size() - 8);
      const auto f = vfs.open(kPath, io::Vfs::OpenMode::kTruncate);
      f->write(bytes.data(), bytes.size());
      f->close();
    }
    const PagedStore store(vfs, kPath);
    PageCache cache(store, {.budget_bytes = 4 * 64, .max_retries = 1});
    PagedGraph pg(store, cache);
    StreamingRunner<apps::Hashmin> runner(pg, apps::Hashmin{},
                                          {.threads = 2});
    const RunOutcome out = runner.run_checked(mode);
    ASSERT_TRUE(out.error.has_value());
    EXPECT_EQ(out.error->kind(), RunErrorKind::kPageError);
  }
}

TEST(StreamingRunner, RunnerIsReentrant) {
  // Two runs on the same runner give the same answer: run() reinitialises
  // all vertex state.
  const CsrGraph g = make_graph(graph::rmat(6, 4, {.seed = 2}));
  FaultyVfs vfs;
  write_store(g, kPath, &vfs, {.page_bytes = kPage});
  const PagedStore store(vfs, kPath);
  PageCache cache(store, {.budget_bytes = 8 * kPage});
  PagedGraph pg(store, cache);
  StreamingRunner<apps::PageRank> runner(pg, apps::PageRank{.rounds = 8});
  (void)runner.run(StreamMode::kPull);
  const std::vector<double> first = runner.values();
  (void)runner.run(StreamMode::kPull);
  EXPECT_EQ(runner.values(), first);
}

}  // namespace
}  // namespace ipregel::store
