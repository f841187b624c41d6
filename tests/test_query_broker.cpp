// QueryBroker end-to-end through the QueryService facade: point-query
// correctness against the serial references, lane batching (occupancy),
// admission/deadline shedding via the job-service machinery, and cache
// interaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/serial_reference.hpp"
#include "query/service.hpp"
#include "service/shed.hpp"
#include "test_util.hpp"

namespace ipregel {
namespace {

using ipregel::testing::make_graph;
using query::PointQuery;
using query::QueryKind;
using query::QueryResult;
using query::QueryService;
using query::QueryTicket;

QueryService::Config small_config() {
  QueryService::Config cfg;
  cfg.jobs.executors = 1;
  cfg.jobs.team_threads = 1;
  cfg.broker.dispatchers = 1;
  cfg.broker.max_linger_seconds = 0.0;
  cfg.broker.enable_cache = false;
  return cfg;
}

TEST(QueryBroker, DistanceMatchesSerialReference) {
  QueryService svc(small_config());
  svc.publish(make_graph(graph::rmat(9, 6, {.seed = 31})));
  const graph::CsrGraph& g = svc.current_epoch()->graph();
  const std::vector<std::uint32_t> solo = apps::serial::sssp_unit(g, 3);

  const QueryResult r = svc.query_sync(PointQuery{
      .kind = QueryKind::kDistance, .source = 3, .targets = {0, 7, 200}});
  ASSERT_EQ(r.status, QueryResult::Status::kOk) << r.error;
  ASSERT_EQ(r.distances.size(), 3u);
  EXPECT_EQ(r.distances[0], solo[g.slot_of(0)]);
  EXPECT_EQ(r.distances[1], solo[g.slot_of(7)]);
  EXPECT_EQ(r.distances[2], solo[g.slot_of(200)]);
  std::uint64_t reached = 0;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    if (solo[s] != QueryResult::kUnreachable) {
      ++reached;
    }
  }
  EXPECT_EQ(r.reached, reached);
  EXPECT_EQ(r.batch_occupancy, 1u);
}

TEST(QueryBroker, ReachabilityOnDirectedPath) {
  QueryService svc(small_config());
  svc.publish(make_graph(graph::path_graph(32)));

  const QueryResult forward = svc.query_sync(PointQuery{
      .kind = QueryKind::kReachability, .source = 0, .targets = {31}});
  ASSERT_EQ(forward.status, QueryResult::Status::kOk);
  EXPECT_TRUE(forward.reachable);

  const QueryResult backward = svc.query_sync(PointQuery{
      .kind = QueryKind::kReachability, .source = 31, .targets = {0}});
  EXPECT_FALSE(backward.reachable) << "edges only point forward";

  const QueryResult bogus = svc.query_sync(PointQuery{
      .kind = QueryKind::kReachability, .source = 0, .targets = {9999}});
  EXPECT_FALSE(bogus.reachable) << "an id outside the graph is unreachable";
}

TEST(QueryBroker, PprTopNMatchesSerialReference) {
  QueryService::Config cfg = small_config();
  cfg.broker.ppr_rounds = 12;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::rmat(8, 6, {.seed = 17})));
  const graph::CsrGraph& g = svc.current_epoch()->graph();
  const std::vector<graph::vid_t> seeds{4, 29};
  const std::vector<double> solo =
      apps::serial::ppr(g, seeds, cfg.broker.ppr_rounds,
                        cfg.broker.ppr_damping);

  const QueryResult r = svc.query_sync(PointQuery{
      .kind = QueryKind::kPpr, .seeds = seeds, .top_n = 8});
  ASSERT_EQ(r.status, QueryResult::Status::kOk) << r.error;
  ASSERT_LE(r.top.size(), 8u);
  ASSERT_FALSE(r.top.empty());
  // Every returned rank matches the serial value for that vertex, and the
  // list is rank-descending.
  for (std::size_t i = 0; i < r.top.size(); ++i) {
    EXPECT_NEAR(r.top[i].rank, solo[g.slot_of(r.top[i].id)], 1e-12);
    if (i > 0) {
      EXPECT_GE(r.top[i - 1].rank, r.top[i].rank);
    }
  }
  // Nothing omitted outranks what was returned.
  double max_omitted = 0.0;
  for (std::size_t s = g.first_slot(); s < g.num_slots(); ++s) {
    const graph::vid_t id = g.id_of(s);
    const bool returned =
        std::any_of(r.top.begin(), r.top.end(),
                    [&](const query::RankedVertex& v) { return v.id == id; });
    if (!returned) {
      max_omitted = std::max(max_omitted, solo[s]);
    }
  }
  EXPECT_GE(r.top.back().rank + 1e-12, max_omitted);
}

TEST(QueryBroker, PprRepeatQueryIsBitIdenticalOnAMultiThreadTeam) {
  // The cache keys on the normalised seed set, so {5, 5, 9} and {9, 5}
  // must get one answer even when each runs the engine afresh on a
  // multi-threaded team. Issued one after the other (query_sync), the two
  // cannot share a lane; the cache is off, so both really run.
  QueryService::Config cfg = small_config();
  cfg.jobs.team_threads = 4;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::rmat(10, 8, {.seed = 13})));
  const std::size_t all = svc.current_epoch()->graph().num_vertices();

  const QueryResult a = svc.query_sync(
      PointQuery{.kind = QueryKind::kPpr, .seeds = {5, 5, 9}, .top_n = all});
  const QueryResult b = svc.query_sync(
      PointQuery{.kind = QueryKind::kPpr, .seeds = {9, 5}, .top_n = all});
  ASSERT_EQ(a.status, QueryResult::Status::kOk) << a.error;
  ASSERT_EQ(b.status, QueryResult::Status::kOk) << b.error;
  ASSERT_FALSE(a.from_cache);
  ASSERT_FALSE(b.from_cache);
  ASSERT_EQ(svc.broker_stats().batches, 2u);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (std::size_t i = 0; i < a.top.size(); ++i) {
    ASSERT_EQ(a.top[i].id, b.top[i].id) << "rank position " << i;
    ASSERT_EQ(a.top[i].rank, b.top[i].rank) << "rank position " << i;
  }
}

TEST(QueryBroker, PprWithoutInEdgesFailsTypedNotPushed) {
  // PPR is served from the pull combiner only; an epoch without in-edges
  // cannot serve it and must say so rather than answer from push.
  QueryService svc(small_config());
  svc.publish(graph::CsrGraph::build(graph::rmat(7, 4, {.seed = 2}),
                                     {.build_in_edges = false}));

  const QueryResult ppr = svc.query_sync(
      PointQuery{.kind = QueryKind::kPpr, .seeds = {1}, .top_n = 4});
  ASSERT_EQ(ppr.status, QueryResult::Status::kFailed);
  EXPECT_NE(ppr.error.find("build_in_edges = true"), std::string::npos)
      << ppr.error;
  EXPECT_TRUE(ppr.top.empty());

  // BFS-family queries do not gather, so the same epoch still serves them.
  const QueryResult dist = svc.query_sync(PointQuery{
      .kind = QueryKind::kDistance, .source = 1, .targets = {1}});
  ASSERT_EQ(dist.status, QueryResult::Status::kOk) << dist.error;
  EXPECT_EQ(dist.distances, std::vector<std::uint32_t>{0});
}

TEST(QueryBroker, CompatibleQueriesShareOneEngineRun) {
  QueryService::Config cfg = small_config();
  cfg.broker.max_batch = 4;
  // Generous linger so all four queries (submitted from this thread while
  // the single dispatcher waits) land in one batch.
  cfg.broker.max_linger_seconds = 0.25;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::rmat(8, 6, {.seed = 5})));
  const graph::CsrGraph& g = svc.current_epoch()->graph();

  std::vector<QueryTicket> tickets;
  const std::vector<graph::vid_t> sources{1, 9, 33, 70};
  tickets.reserve(sources.size());
  for (const graph::vid_t s : sources) {
    tickets.push_back(svc.query(PointQuery{
        .kind = QueryKind::kDistance, .source = s, .targets = {0}}));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const QueryResult r = tickets[i].wait();
    ASSERT_EQ(r.status, QueryResult::Status::kOk) << r.error;
    EXPECT_GT(r.batch_occupancy, 1u)
        << "queries queued together must share a run";
    const std::vector<std::uint32_t> solo =
        apps::serial::sssp_unit(g, sources[i]);
    ASSERT_EQ(r.distances.size(), 1u);
    EXPECT_EQ(r.distances[0], solo[g.slot_of(0)])
        << "lane " << i << " must match its solo run exactly";
  }
  const auto stats = svc.broker_stats();
  EXPECT_LT(stats.batches, stats.lanes)
      << "4 queries in fewer runs than queries";
}

TEST(QueryBroker, SameSourceQueriesShareOneEngineLane) {
  QueryService::Config cfg = small_config();
  cfg.broker.max_batch = 8;
  cfg.broker.max_linger_seconds = 0.25;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::rmat(8, 6, {.seed = 11})));
  const graph::CsrGraph& g = svc.current_epoch()->graph();

  // Hot-source traffic: four queries about vertex 5 (different targets,
  // one reachability) plus one about vertex 9 — two lanes of work, not
  // five.
  std::vector<QueryTicket> tickets;
  for (const graph::vid_t t : {0u, 17u, 63u}) {
    tickets.push_back(svc.query(PointQuery{
        .kind = QueryKind::kDistance, .source = 5, .targets = {t}}));
  }
  tickets.push_back(svc.query(PointQuery{
      .kind = QueryKind::kReachability, .source = 5, .targets = {63}}));
  tickets.push_back(svc.query(PointQuery{
      .kind = QueryKind::kDistance, .source = 9, .targets = {0}}));

  const std::vector<std::uint32_t> from5 = apps::serial::sssp_unit(g, 5);
  const std::vector<std::uint32_t> from9 = apps::serial::sssp_unit(g, 9);
  const std::vector<graph::vid_t> targets{0, 17, 63};
  for (std::size_t i = 0; i < 3; ++i) {
    const QueryResult r = tickets[i].wait();
    ASSERT_EQ(r.status, QueryResult::Status::kOk) << r.error;
    ASSERT_EQ(r.distances.size(), 1u);
    EXPECT_EQ(r.distances[0], from5[g.slot_of(targets[i])]);
  }
  const QueryResult reach = tickets[3].wait();
  ASSERT_EQ(reach.status, QueryResult::Status::kOk);
  EXPECT_EQ(reach.reachable,
            from5[g.slot_of(63)] != QueryResult::kUnreachable);
  const QueryResult other = tickets[4].wait();
  ASSERT_EQ(other.status, QueryResult::Status::kOk);
  ASSERT_EQ(other.distances.size(), 1u);
  EXPECT_EQ(other.distances[0], from9[g.slot_of(0)]);

  const auto stats = svc.broker_stats();
  EXPECT_EQ(stats.lanes, 5u);
  EXPECT_LT(stats.engine_lanes, stats.lanes)
      << "same-source members of one batch must share a lane";
  EXPECT_GE(stats.engine_lanes, 2u)
      << "sources 5 and 9 still need distinct lanes";
}

TEST(QueryBroker, MixedFamiliesDoNotBatchTogether) {
  QueryService::Config cfg = small_config();
  cfg.broker.max_batch = 8;
  cfg.broker.max_linger_seconds = 0.1;
  cfg.broker.ppr_rounds = 3;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::rmat(7, 4, {.seed = 2})));

  QueryTicket bfs = svc.query(PointQuery{
      .kind = QueryKind::kDistance, .source = 1, .targets = {2}});
  QueryTicket ppr =
      svc.query(PointQuery{.kind = QueryKind::kPpr, .seeds = {1}});
  const QueryResult rb = bfs.wait();
  const QueryResult rp = ppr.wait();
  ASSERT_EQ(rb.status, QueryResult::Status::kOk);
  ASSERT_EQ(rp.status, QueryResult::Status::kOk);
  EXPECT_EQ(rb.batch_occupancy, 1u);
  EXPECT_EQ(rp.batch_occupancy, 1u);
  EXPECT_EQ(svc.broker_stats().batches, 2u);
}

TEST(QueryBroker, CacheHitSkipsTheEngine) {
  QueryService::Config cfg = small_config();
  cfg.broker.enable_cache = true;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::rmat(7, 4, {.seed = 23})));

  const PointQuery q{
      .kind = QueryKind::kDistance, .source = 2, .targets = {40}};
  const QueryResult first = svc.query_sync(q);
  ASSERT_EQ(first.status, QueryResult::Status::kOk);
  EXPECT_FALSE(first.from_cache);

  const QueryResult second = svc.query_sync(q);
  ASSERT_EQ(second.status, QueryResult::Status::kOk);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.distances, first.distances);
  EXPECT_EQ(second.reached, first.reached);
  EXPECT_EQ(second.epoch_fingerprint, first.epoch_fingerprint);

  const auto stats = svc.broker_stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.batches, 1u) << "the second query must not run";
}

TEST(QueryBroker, PprCacheEntryStaysOAnswerSized) {
  QueryService::Config cfg = small_config();
  cfg.broker.enable_cache = true;
  cfg.broker.ppr_rounds = 5;
  QueryService svc(cfg);
  // A hub-seeded PPR reaches thousands of vertices; the cached payload
  // must still be the top-N slice, not the O(|V|) candidate scratch
  // (capacity included — resize() alone does not give memory back).
  svc.publish(make_graph(graph::rmat(10, 8, {.seed = 3})));

  const QueryResult r = svc.query_sync(
      PointQuery{.kind = QueryKind::kPpr, .seeds = {0, 1}, .top_n = 5});
  ASSERT_EQ(r.status, QueryResult::Status::kOk) << r.error;
  ASSERT_FALSE(r.top.empty());
  EXPECT_LE(r.top.capacity(), 64u) << "returned payload keeps O(|V|) heap";
  const auto cache = svc.cache_stats();
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_LT(cache.bytes, 4096u)
      << "one top-5 entry must charge the ledger O(answer) bytes";
}

TEST(QueryBroker, QueueFullShedsTyped) {
  QueryService::Config cfg = small_config();
  cfg.broker.max_pending = 2;
  // Deep linger with an unfillable batch holds the dispatcher, so pending
  // genuinely accumulates behind the lingering head.
  cfg.broker.max_linger_seconds = 0.5;
  cfg.broker.max_batch = 8;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::path_graph(8)));

  // The first query is grabbed by the dispatcher (lingers); two more fill
  // the pending bound; the fourth must be rejected typed.
  std::vector<QueryTicket> tickets;
  bool rejected = false;
  for (int i = 0; i < 8; ++i) {
    try {
      tickets.push_back(svc.query(PointQuery{.kind = QueryKind::kDistance,
                                             .source = 0,
                                             .targets = {1}}));
    } catch (const service::ShedError& e) {
      EXPECT_EQ(e.reason(), service::ShedReason::kQueueFull);
      rejected = true;
      break;
    }
  }
  EXPECT_TRUE(rejected) << "pending bound must reject typed";
  for (QueryTicket& t : tickets) {
    (void)t.wait();  // all admitted queries still resolve
  }
}

TEST(QueryBroker, ExpiredDeadlineIsShedNotAnswered) {
  QueryService::Config cfg = small_config();
  cfg.broker.max_linger_seconds = 0.2;  // the head query lingers past its
                                        // own 1 ms deadline
  cfg.broker.max_batch = 8;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::path_graph(8)));

  QueryTicket doomed = svc.query(PointQuery{.kind = QueryKind::kDistance,
                                            .source = 0,
                                            .targets = {1},
                                            .deadline_seconds = 0.001});
  const QueryResult r = doomed.wait();
  EXPECT_EQ(r.status, QueryResult::Status::kShed);
  ASSERT_TRUE(r.shed_reason.has_value());
  EXPECT_EQ(*r.shed_reason, service::ShedReason::kDeadlineExpired);
  EXPECT_EQ(svc.broker_stats().shed, 1u);
}

TEST(QueryBroker, SubmitWithoutEpochIsALogicError) {
  QueryService svc(small_config());
  EXPECT_THROW((void)svc.query(PointQuery{}), std::logic_error);
}

TEST(QueryBroker, ShutdownShedsPendingAndRejectsNew) {
  QueryService::Config cfg = small_config();
  cfg.broker.max_linger_seconds = 0.5;
  cfg.broker.max_batch = 1;
  QueryService svc(cfg);
  svc.publish(make_graph(graph::path_graph(8)));

  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(svc.query(PointQuery{
        .kind = QueryKind::kDistance, .source = 0, .targets = {1}}));
  }
  svc.shutdown();
  std::size_t ok = 0;
  std::size_t shut = 0;
  for (QueryTicket& t : tickets) {
    const QueryResult r = t.wait();
    if (r.status == QueryResult::Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, QueryResult::Status::kShed);
      EXPECT_EQ(r.shed_reason.value(), service::ShedReason::kShutdown);
      ++shut;
    }
  }
  EXPECT_EQ(ok + shut, 4u) << "every admitted query resolves exactly once";
  EXPECT_THROW((void)svc.query(PointQuery{.kind = QueryKind::kDistance}),
               service::ShedError);
}

}  // namespace
}  // namespace ipregel
