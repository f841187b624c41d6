// The repository's benchmark: one workload per process, generated from a
// seed, measured for a fixed time, every job's output checked.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--commit <sha>] [--tiny] [--perturb-reference]
//
// Workloads (README.md gives the reasons and the predictions):
//   wiki-pagerank   R-MAT s18 ef12, PageRank 10 rounds, engine broadcast
//                   (pull, no bypass), 2 threads
//   road-hashmin    200x300 grid, 3% of links removed, Hashmin, engine
//                   spinlock push + selection bypass, 2 threads
//   shard-pagerank  the wiki graph, PageRank 10 rounds, shard::run_sharded
//                   with 2 shm shards, block partition, no checkpoints
//   paged-pagerank  the wiki graph written to a paged store in set-up; each
//                   job runs StreamingRunner (pull, 2 threads) over a fresh
//                   PageCache holding 1/4 of the streamed edge bytes
//
// Set-up (generation, CSR build, pool start, store write and open) runs
// several times and setup_s is the median. Then one warm-up job runs, then
// jobs run one after another until --seconds have passed. Each job's time
// spans the calls into the layer's public entry points; the output check
// runs after the clock stops. A fixed speed probe runs before every job
// (and during set-up), and the end-to-end times are scaled by it to a
// reference host's seconds, so that other tenants slowing the host do not
// read as a slower program. With --trace 1 every other job is traced (spans
// around each layer call, per-superstep statistics, counted store reads),
// the per-layer metrics come from the traced jobs, and the tracing
// overhead is the traced minus the untraced wall-clock job median of the
// same run.
//
// The last line of stdout is the result object; the line before it is the
// full report (host, build, sample counts, failures by kind).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "apps/hashmin.hpp"
#include "apps/pagerank.hpp"
#include "apps/serial_reference.hpp"
#include "core/engine.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "runtime/thread_pool.hpp"
#include "shard/coordinator.hpp"
#include "store/page_cache.hpp"
#include "store/paged_graph.hpp"
#include "store/paged_store.hpp"
#include "store/store_writer.hpp"
#include "store/streaming_runner.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace ipregel;  // NOLINT(google-build-using-namespace)

const Clock::time_point kProcessStart = Clock::now();

constexpr std::size_t kThreads = 2;  // threads or shards per job
constexpr std::size_t kShards = 2;
constexpr std::size_t kPageRankRounds = 10;
// Set-up repeats at least kMinSetupReps times and until kMinSetupSeconds
// have been spent in it, so a cheap set-up (the road grid) is timed over
// enough repetitions for its median to be steady.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 1000;
constexpr double kMinSetupSeconds = 1.0;
constexpr std::size_t kMinJobs = 3;
// During set-up the probe runs again once this much set-up time has passed,
// so each set-up is scaled by a probe taken close to it.
constexpr double kSetupProbeSeconds = 0.1;
constexpr double kPageRankTolerance = 1e-9;
// The geometric mean of the speed probe's two parts as timed in a quiet
// spell on a 4-vCPU KVM guest (Intel Xeon Sapphire Rapids). Scaled times are
// wall clock x kProbeReferenceSeconds / the probe's time; the constant only
// sets the unit.
constexpr double kProbeReferenceSeconds = 0.018;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string commit = "unknown";
  bool tiny = false;
  bool perturb = false;
};

/// Every per-layer metric the traced run prints, with its unit. A layer a
/// workload does not call reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.generate_s", "s"},        {"graph.csr_build_s", "s"},
    {"graph.vertices", "count"},      {"graph.edges", "count"},
    {"runtime.pool_start_s", "s"},    {"core.construct_s", "s"},
    {"core.loop_s", "s"},             {"core.supersteps", "count"},
    {"core.messages", "count"},       {"core.executed_vertices", "count"},
    {"core.executed_frac", "ratio"},  {"core.superstep_p50_s", "s"},
    {"core.superstep_max_s", "s"},    {"shard.prepare_s", "s"},
    {"shard.run_s", "s"},             {"shard.supersteps", "count"},
    {"shard.messages", "count"},      {"shard.respawns", "count"},
    {"shard.heartbeat_kills", "count"},
    {"shard.children_peak_rss_mb", "MB"},
    {"store.write_s", "s"},           {"store.open_s", "s"},
    {"store.build_s", "s"},           {"store.loop_s", "s"},
    {"store.cache_hits", "count"},    {"store.cache_misses", "count"},
    {"store.miss_rate", "ratio"},     {"store.evictions", "count"},
    {"store.read_ahead_loaded", "count"},
    {"store.retries", "count"},       {"store.crc_failures", "count"},
    {"store.io_failures", "count"},   {"store.peak_resident_bytes", "B"},
    {"io.read_ops", "count"},         {"io.read_bytes", "B"},
    {"io.read_s", "s"},               {"trace.overhead_s", "s"},
};

/// Counts that must repeat exactly across the jobs (or set-ups) of a run.
using ExactCounts = std::map<std::string, std::uint64_t>;

struct SetupRecord {
  double seconds = 0.0;
  SpeedProbe::Sample probe;  ///< the latest speed probe before the set-up
  std::map<std::string, double> layer;
  ExactCounts exact;
};

struct JobRecord {
  double seconds = 0.0;  ///< call into the layer's run function to return
  bool traced = false;
  std::string failure;  ///< empty when the job ran and its output matched
  /// Shard jobs: this process's resident set just before run_sharded, the
  /// pages a forked worker starts out sharing.
  double rss_at_call_mb = 0.0;
  SpeedProbe::Sample probe;  ///< the speed probe run just before the job
  std::map<std::string, double> layer;
  ExactCounts exact;
};

double since(Clock::time_point t) { return seconds_between(t, Clock::now()); }

apps::PageRank pagerank() {
  apps::PageRank pr;
  pr.rounds = kPageRankRounds;
  return pr;
}

/// Times one set-up phase into `rec` under a span of the same name.
template <typename F>
auto timed_phase(Tracer& tracer, SetupRecord& rec, const std::string& name,
                 long parent, F&& f) {
  ScopedSpan span(tracer, name, -1, parent);
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    rec.layer[name + "_s"] = since(t0);
  } else {
    auto out = f();
    rec.layer[name + "_s"] = since(t0);
    return out;
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the state the jobs run on, replacing any earlier state.
  virtual SetupRecord setup(Tracer& tracer) = 0;
  /// Computes the reference outputs (untimed), after the last set-up.
  virtual void make_reference(bool perturb) = 0;
  virtual JobRecord job(Tracer& tracer, long id, bool traced) = 0;
  /// Threads or shards per job, for the report.
  [[nodiscard]] virtual std::string shape() const = 0;
};

/// Graph and thread-pool set-up shared by every workload.
class GraphWorkload : public Workload {
 public:
  GraphWorkload(const Args& args, bool road) : args_(args), road_(road) {}

  SetupRecord setup(Tracer& tracer) override {
    release();
    SetupRecord rec;
    const auto t0 = Clock::now();
    ScopedSpan span(tracer, "setup", -1);
    build(tracer, rec, span.id());
    rec.seconds = since(t0);
    rec.exact["graph.vertices"] = graph_.num_vertices();
    rec.exact["graph.edges"] = graph_.num_edges();
    return rec;
  }

 protected:
  virtual void release() {
    pool_.reset();
    graph_ = graph::CsrGraph{};
  }

  virtual void build(Tracer& tracer, SetupRecord& rec, long parent) {
    graph::EdgeList edges =
        timed_phase(tracer, rec, "graph.generate", parent, [&] {
          if (road_) {
            const graph::vid_t rows = args_.tiny ? 20 : 200;
            const graph::vid_t cols = args_.tiny ? 30 : 300;
            return graph::grid_2d(
                rows, cols, {.removal_fraction = 0.03, .seed = args_.seed});
          }
          auto e = graph::rmat(args_.tiny ? 10 : 18, args_.tiny ? 8 : 12,
                               {.seed = args_.seed});
          // The paper's graphs number vertices from 1.
          graph::shift_ids(e, 1);
          return e;
        });
    graph_ = timed_phase(tracer, rec, "graph.csr_build", parent, [&] {
      return graph::CsrGraph::build(
          edges, {.addressing = graph::AddressingMode::kOffset,
                  .build_in_edges = !road_,
                  .keep_weights = false});
    });
    pool_ = timed_phase(tracer, rec, "runtime.pool_start", parent, [] {
      return std::make_unique<runtime::ThreadPool>(kThreads);
    });
  }

  /// PageRank through the engine's broadcast version: the reference the
  /// shard and paged workloads are checked against.
  [[nodiscard]] std::vector<double> engine_pagerank() const {
    Engine<apps::PageRank, CombinerKind::kPull, false> engine(
        graph_, pagerank(), EngineOptions{}, pool_.get());
    (void)engine.run();
    const auto v = engine.values();
    return {v.begin(), v.end()};
  }

  const Args& args_;
  bool road_;
  graph::CsrGraph graph_;
  std::unique_ptr<runtime::ThreadPool> pool_;
};

/// Largest absolute difference over the populated slots; NaN-safe (a NaN
/// anywhere reads as an infinite difference).
double max_abs_diff(const std::vector<double>& a, const double* b,
                    std::size_t first, std::size_t slots) {
  double worst = 0.0;
  for (std::size_t s = first; s < slots; ++s) {
    const double d = std::abs(a[s] - b[s]);
    if (!(d <= worst)) worst = std::isnan(d) ? INFINITY : d;
  }
  return worst;
}

/// A job through the single-process engine: Engine construction and
/// run_checked() are timed separately, the values checked afterwards.
template <typename Program, CombinerKind Combiner, bool Bypass>
class EngineWorkload final : public GraphWorkload {
 public:
  using Value = typename Program::value_type;

  EngineWorkload(const Args& args, bool road, Program program)
      : GraphWorkload(args, road), program_(program) {}

  void make_reference(bool perturb) override {
    if constexpr (std::is_same_v<Program, apps::PageRank>) {
      reference_ = apps::serial::pagerank(graph_, program_.rounds);
      if (perturb) reference_[graph_.first_slot()] += 1e-6;
    } else {
      reference_ = apps::serial::hashmin(graph_);
      if (perturb) reference_[graph_.first_slot()] += 1;
    }
  }

  JobRecord job(Tracer& tracer, long id, bool traced) override {
    JobRecord rec;
    rec.traced = traced;
    EngineOptions options;
    options.collect_superstep_stats = traced;
    const auto t0 = Clock::now();
    const long job_span = tracer.open("job", id);
    const long construct_span = tracer.open("core.construct", id, job_span);
    Engine<Program, Combiner, Bypass> engine(graph_, program_, options,
                                             pool_.get());
    const auto t1 = Clock::now();
    tracer.close(construct_span);
    const long run_span = tracer.open("core.run", id, job_span);
    const RunOutcome out = engine.run_checked();
    const auto t2 = Clock::now();
    tracer.close(run_span);
    tracer.close(job_span);

    rec.seconds = seconds_between(t0, t2);
    if (!out.ok()) {
      rec.failure = std::string(to_string(out.error->kind()));
      return rec;
    }
    const RunResult& r = out.result;
    rec.layer["core.construct_s"] = seconds_between(t0, t1);
    rec.layer["core.loop_s"] = r.seconds;
    rec.exact["core.supersteps"] = r.supersteps;
    rec.exact["core.messages"] = r.total_messages;
    rec.exact["core.executed_vertices"] = r.total_executed_vertices;
    rec.layer["core.executed_frac"] =
        static_cast<double>(r.total_executed_vertices) /
        (static_cast<double>(r.supersteps) *
         static_cast<double>(graph_.num_vertices()));
    if (traced) {
      std::vector<double> steps;
      for (const SuperstepStats& s : r.per_superstep) {
        steps.push_back(s.seconds);
      }
      rec.layer["core.superstep_p50_s"] = median(steps);
      rec.layer["core.superstep_max_s"] = quantile(steps, 1.0);
    }

    ScopedSpan check(tracer, "check", id, job_span);
    const auto values = engine.values();
    bool match = values.size() == reference_.size();
    if (match) {
      if constexpr (std::is_same_v<Value, double>) {
        match = max_abs_diff(reference_, values.data(), graph_.first_slot(),
                             values.size()) <= kPageRankTolerance;
      } else {
        match = std::equal(values.begin() + static_cast<std::ptrdiff_t>(
                                                graph_.first_slot()),
                           values.end(),
                           reference_.begin() + static_cast<std::ptrdiff_t>(
                                                    graph_.first_slot()));
      }
    }
    if (!match) rec.failure = "output-mismatch";
    return rec;
  }

  [[nodiscard]] std::string shape() const override {
    return std::to_string(kThreads) + " threads";
  }

 private:
  Program program_;
  std::vector<Value> reference_;
};

/// PageRank through shard::run_sharded: 2 forked workers over shm rings.
class ShardWorkload final : public GraphWorkload {
 public:
  explicit ShardWorkload(const Args& args) : GraphWorkload(args, false) {}

  void make_reference(bool perturb) override {
    reference_ = engine_pagerank();
    if (perturb) reference_[graph_.first_slot()] += 1e-6;
  }

  JobRecord job(Tracer& tracer, long id, bool traced) override {
    JobRecord rec;
    rec.traced = traced;
    shard::ShardOptions options;
    options.num_shards = kShards;
    options.transport = shard::TransportKind::kShm;
    options.partition = shard::PartitionScheme::kBlock;
    std::vector<double> values;
    rec.rss_at_call_mb = rss_mb();
    const auto t0 = Clock::now();
    const long job_span = tracer.open("job", id);
    const long run_span = tracer.open("shard.run_sharded", id, job_span);
    const shard::ShardOutcome out =
        shard::run_sharded(graph_, pagerank(), options, &values);
    const auto t1 = Clock::now();
    tracer.close(run_span);
    tracer.close(job_span);

    rec.seconds = seconds_between(t0, t1);
    rec.layer["shard.respawns"] = static_cast<double>(out.shard.respawns);
    rec.layer["shard.heartbeat_kills"] =
        static_cast<double>(out.shard.heartbeat_kills);
    if (!out.ok()) {
      rec.failure = std::string(to_string(out.error->kind()));
      return rec;
    }
    rec.layer["shard.run_s"] = out.result.seconds;
    rec.layer["shard.prepare_s"] = rec.seconds - out.result.seconds;
    rec.exact["shard.supersteps"] = out.result.supersteps;
    rec.exact["shard.messages"] = out.result.total_messages;

    ScopedSpan check(tracer, "check", id, job_span);
    if (values.size() != reference_.size() ||
        !(max_abs_diff(reference_, values.data(), graph_.first_slot(),
                       values.size()) <= kPageRankTolerance)) {
      rec.failure = "output-mismatch";
    }
    return rec;
  }

  [[nodiscard]] std::string shape() const override {
    return std::to_string(kShards) + " shards (shm, block partition)";
  }

 private:
  std::vector<double> reference_;
};

/// PageRank streamed from a paged store: the store is written and opened
/// in set-up; each job builds its own PageCache, PagedGraph and runner.
class PagedWorkload final : public GraphWorkload {
 public:
  explicit PagedWorkload(const Args& args)
      : GraphWorkload(args, false),
        path_((std::filesystem::path(args.workdir) / "graph.pages").string()),
        vfs_(io::real_vfs(), io_) {}

  ~PagedWorkload() override {
    store_.reset();
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  PagedWorkload(const PagedWorkload&) = delete;
  PagedWorkload& operator=(const PagedWorkload&) = delete;

  void make_reference(bool perturb) override {
    reference_ = engine_pagerank();
    if (perturb) {
      double& v = reference_[graph_.first_slot()];
      v = std::nextafter(v, INFINITY);
    }
  }

  JobRecord job(Tracer& tracer, long id, bool traced) override {
    JobRecord rec;
    rec.traced = traced;
    io_.reset();
    io_.enabled = traced;
    const auto t0 = Clock::now();
    const long job_span = tracer.open("job", id);
    const long build_span = tracer.open("store.build", id, job_span);
    store::PageCache cache(*store_, {.budget_bytes = budget_});
    store::PagedGraph paged(*store_, cache);
    store::StreamingRunner<apps::PageRank> runner(paged, pagerank(),
                                                  {.threads = kThreads});
    const auto t1 = Clock::now();
    tracer.close(build_span);
    const long run_span = tracer.open("store.run", id, job_span);
    const RunOutcome out = runner.run_checked(store::StreamMode::kPull);
    const auto t2 = Clock::now();
    tracer.close(run_span);
    tracer.close(job_span);
    io_.enabled = false;

    rec.seconds = seconds_between(t0, t2);
    const store::PageCacheStats stats = cache.stats();
    rec.layer["store.retries"] = static_cast<double>(stats.retries);
    rec.layer["store.crc_failures"] = static_cast<double>(stats.crc_failures);
    rec.layer["store.io_failures"] = static_cast<double>(stats.io_failures);
    if (!out.ok()) {
      rec.failure = std::string(to_string(out.error->kind()));
      return rec;
    }
    rec.layer["store.build_s"] = seconds_between(t0, t1);
    rec.layer["store.loop_s"] = out.result.seconds;
    rec.layer["store.cache_hits"] = static_cast<double>(stats.hits);
    rec.layer["store.cache_misses"] = static_cast<double>(stats.misses);
    const double accesses = static_cast<double>(stats.hits + stats.misses);
    rec.layer["store.miss_rate"] =
        accesses > 0.0 ? static_cast<double>(stats.misses) / accesses : 0.0;
    rec.layer["store.evictions"] = static_cast<double>(stats.evictions);
    rec.layer["store.read_ahead_loaded"] =
        static_cast<double>(stats.read_ahead_loaded);
    rec.layer["store.peak_resident_bytes"] =
        static_cast<double>(stats.peak_resident_bytes);
    if (traced) {
      rec.layer["io.read_ops"] = static_cast<double>(io_.read_ops.load());
      rec.layer["io.read_bytes"] = static_cast<double>(io_.read_bytes.load());
      rec.layer["io.read_s"] = static_cast<double>(io_.read_ns.load()) * 1e-9;
    }

    ScopedSpan check(tracer, "check", id, job_span);
    const std::vector<double>& values = runner.values();
    const std::size_t first = graph_.first_slot();
    if (values.size() != reference_.size() ||
        std::memcmp(values.data() + first, reference_.data() + first,
                    (values.size() - first) * sizeof(double)) != 0) {
      rec.failure = "output-mismatch";
    }
    return rec;
  }

  [[nodiscard]] std::string shape() const override {
    return std::to_string(kThreads) + " threads, cache budget " +
           std::to_string(budget_) + " B of " + std::to_string(streamed_) +
           " B streamed";
  }

 protected:
  void release() override {
    store_.reset();
    GraphWorkload::release();
  }

  void build(Tracer& tracer, SetupRecord& rec, long parent) override {
    GraphWorkload::build(tracer, rec, parent);
    const std::size_t page_bytes =
        args_.tiny ? std::size_t{1} << 12 : std::size_t{1} << 16;
    std::filesystem::remove(path_);
    timed_phase(tracer, rec, "store.write", parent, [&] {
      store::write_store(graph_, path_, nullptr, {.page_bytes = page_bytes});
    });
    store_ = timed_phase(tracer, rec, "store.open", parent, [&] {
      return std::make_unique<store::PagedStore>(vfs_, path_);
    });
    const store::Superblock& sb = store_->superblock();
    streamed_ = sb.section(store::Section::kOutTargets).payload_bytes +
                sb.section(store::Section::kInTargets).payload_bytes;
    // The cache holds a quarter of the streamed bytes, and at least one
    // frame per thread plus one for read-ahead.
    budget_ = std::max<std::size_t>((kThreads + 1) * page_bytes,
                                    static_cast<std::size_t>(streamed_ / 4));
  }

 private:
  std::string path_;
  IoCounters io_;
  CountingVfs vfs_;
  std::unique_ptr<store::PagedStore> store_;
  std::uint64_t streamed_ = 0;
  std::size_t budget_ = 0;
  std::vector<double> reference_;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "wiki-pagerank") {
    return std::make_unique<
        EngineWorkload<apps::PageRank, CombinerKind::kPull, false>>(
        args, false, pagerank());
  }
  if (args.workload == "road-hashmin") {
    return std::make_unique<
        EngineWorkload<apps::Hashmin, CombinerKind::kSpinlockPush, true>>(
        args, true, apps::Hashmin{});
  }
  if (args.workload == "shard-pagerank") {
    return std::make_unique<ShardWorkload>(args);
  }
  if (args.workload == "paged-pagerank") {
    return std::make_unique<PagedWorkload>(args);
  }
  return nullptr;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Median over jobs of one per-job layer value (jobs lacking it skipped).
double layer_median(const std::vector<JobRecord>& jobs,
                    const std::string& name) {
  std::vector<double> v;
  for (const JobRecord& j : jobs) {
    if (const auto it = j.layer.find(name); it != j.layer.end()) {
      v.push_back(it->second);
    }
  }
  return median(v);
}

/// Job times of the traced or untraced jobs, each in wall-clock seconds or
/// scaled by the speed probe run just before it.
std::vector<double> job_seconds(const std::vector<JobRecord>& jobs,
                                bool traced, bool scaled) {
  std::vector<double> v;
  for (const JobRecord& j : jobs) {
    if (j.traced != traced) continue;
    v.push_back(scaled ? j.seconds * kProbeReferenceSeconds /
                             j.probe.seconds()
                       : j.seconds);
  }
  return v;
}

/// Checks that every exact count repeats in every record; returns the
/// names of the counts that moved, or were missing from some record.
template <typename Record>
std::vector<std::string> moved_counts(const std::vector<Record>& records,
                                      ExactCounts& first) {
  std::vector<std::string> moved;
  for (const Record& r : records) {
    if (!r.exact.empty() && first.empty()) first = r.exact;
  }
  for (const Record& r : records) {
    if (r.exact.empty()) continue;  // a failed job reports no counts
    for (const auto& [name, value] : first) {
      const auto it = r.exact.find(name);
      if ((it == r.exact.end() || it->second != value) &&
          std::find(moved.begin(), moved.end(), name) == moved.end()) {
        moved.push_back(name);
      }
    }
  }
  return moved;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--perturb-reference") {
      args.perturb = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      args.workload = argv[++i];
    } else if (a == "--seed") {
      args.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds") {
      args.seconds = std::stod(argv[++i]);
    } else if (a == "--trace") {
      args.trace = std::string(argv[++i]) == "1";
    } else if (a == "--workdir") {
      args.workdir = argv[++i];
    } else if (a == "--commit") {
      args.commit = argv[++i];
    } else {
      return false;
    }
  }
  return !args.workload.empty() && !args.workdir.empty() &&
         args.seconds > 0.0;
}

int run(const Args& args) {
  // Forked first, while this process has no other threads, and destroyed
  // last, after RUSAGE_CHILDREN has been read.
  SpeedProbe probe;
  std::filesystem::create_directories(args.workdir);
  std::unique_ptr<Workload> workload = make_workload(args);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  Tracer tracer(kProcessStart);
  tracer.set_enabled(args.trace);

  // ---- Set-up, repeated; the last one's state serves the jobs ----------
  std::vector<SetupRecord> setups;
  double setup_spent = 0.0;
  SpeedProbe::Sample setup_probe;
  double since_probe = kSetupProbeSeconds;
  do {
    if (since_probe >= kSetupProbeSeconds) {
      setup_probe = probe.run();
      since_probe = 0.0;
    }
    setups.push_back(workload->setup(tracer));
    setups.back().probe = setup_probe;
    since_probe += setups.back().seconds;
    setup_spent += setups.back().seconds;
  } while (!args.tiny && setups.size() < kMaxSetupReps &&
           (setups.size() < kMinSetupReps || setup_spent < kMinSetupSeconds));
  const double process_to_jobs = since(kProcessStart);
  {
    ScopedSpan span(tracer, "reference", -1);
    workload->make_reference(args.perturb);
  }

  // ---- Jobs: one warm-up, then one after another for --seconds ---------
  std::vector<JobRecord> jobs;
  std::map<std::string, std::size_t> failures;
  const auto run_job = [&](long id, bool traced) {
    const SpeedProbe::Sample host = probe.run();
    tracer.set_enabled(traced);
    JobRecord rec;
    try {
      rec = workload->job(tracer, id, traced);
    } catch (const RunError& e) {
      rec.traced = traced;
      rec.failure = std::string(to_string(e.kind()));
    } catch (const std::exception& e) {
      rec.traced = traced;
      rec.failure = "exception";
      std::cerr << "perfbench: job " << id << " threw: " << e.what() << "\n";
    }
    tracer.set_enabled(args.trace);
    rec.probe = host;
    if (!rec.failure.empty()) ++failures[rec.failure];
    return rec;
  };
  const JobRecord warmup = run_job(-1, false);
  const auto ticks_start = cpu_ticks();
  const auto loop_start = Clock::now();
  while (jobs.size() < kMinJobs || since(loop_start) < args.seconds) {
    const long id = static_cast<long>(jobs.size());
    // Traced and untraced jobs alternate, so the overhead compares jobs
    // that ran under the same conditions.
    jobs.push_back(run_job(id, args.trace && id % 2 == 0));
  }
  const double loop_seconds = since(loop_start);
  const auto ticks_end = cpu_ticks();
  // Share of the host's CPU time the hypervisor gave to others during the
  // jobs; it explains a slow run without changing any metric.
  const double steal_frac =
      ticks_end.second > ticks_start.second
          ? static_cast<double>(ticks_end.first - ticks_start.first) /
                static_cast<double>(ticks_end.second - ticks_start.second)
          : 0.0;

  // ---- Metrics ----------------------------------------------------------
  const std::size_t attempted = jobs.size() + 1;
  const std::size_t failed =
      static_cast<std::size_t>(!warmup.failure.empty()) +
      static_cast<std::size_t>(std::count_if(
          jobs.begin(), jobs.end(),
          [](const JobRecord& j) { return !j.failure.empty(); }));
  ExactCounts setup_counts;
  ExactCounts job_counts;
  std::vector<std::string> moved = moved_counts(setups, setup_counts);
  for (const std::string& m : moved_counts(jobs, job_counts)) {
    moved.push_back(m);
  }
  const bool correct = failed == 0 && moved.empty();

  // Times are scaled to the reference host by the speed probe: each job and
  // each set-up by the latest probe before it.
  std::vector<double> probes{warmup.probe.seconds()};
  std::vector<double> sweeps{warmup.probe.sweep_s};
  std::vector<double> chains{warmup.probe.chain_s};
  for (const JobRecord& j : jobs) {
    probes.push_back(j.probe.seconds());
    sweeps.push_back(j.probe.sweep_s);
    chains.push_back(j.probe.chain_s);
  }
  const double host_scale = kProbeReferenceSeconds / median(probes);
  const std::vector<double> untraced = job_seconds(jobs, false, true);
  const std::vector<double> untraced_wall = job_seconds(jobs, false, false);
  const std::vector<double> traced_wall = job_seconds(jobs, true, false);
  std::vector<double> setup_totals;
  std::vector<double> setup_scaled;
  for (const SetupRecord& s : setups) {
    setup_totals.push_back(s.seconds);
    setup_scaled.push_back(s.seconds * kProbeReferenceSeconds /
                           s.probe.seconds());
  }
  const double setup_wall_s = median(setup_totals);
  const double setup_s = median(setup_scaled);

  // A forked shard worker's peak includes the pages it shared with this
  // process at fork; its own memory is the part above them. RUSAGE_CHILDREN
  // keeps only the largest worker, so every worker is counted at its size.
  std::vector<double> rss_at_call;
  if (warmup.rss_at_call_mb > 0.0) {
    rss_at_call.push_back(warmup.rss_at_call_mb);
  }
  for (const JobRecord& j : jobs) {
    if (j.rss_at_call_mb > 0.0) rss_at_call.push_back(j.rss_at_call_mb);
  }
  const double self_peak = self_peak_rss_mb();
  const double children_peak = children_peak_rss_mb();
  const double worker_peak =
      rss_at_call.empty() ? 0.0
                          : std::max(0.0, children_peak - median(rss_at_call));
  const double peak_rss =
      self_peak + static_cast<double>(kShards) * worker_peak;

  JsonObject metrics;
  const auto metric = [&](const std::string& name, double value,
                          const std::string& unit) {
    metrics.raw(name,
                JsonObject().number("value", value).text("unit", unit).str());
  };
  if (!args.trace) {
    metric("setup_s", setup_s, "s");
    metric("job_p50_s", median(untraced), "s");
    metric("peak_rss_mb", peak_rss, "MB");
  } else {
    std::vector<JobRecord> traced_jobs;
    for (const JobRecord& j : jobs) {
      if (j.traced) traced_jobs.push_back(j);
    }
    for (const LayerMetric& m : kLayerMetrics) {
      const std::string name = m.name;
      double value = 0.0;
      if (const auto it = setup_counts.find(name); it != setup_counts.end()) {
        value = static_cast<double>(it->second);
      } else if (const auto jt = job_counts.find(name);
                 jt != job_counts.end()) {
        value = static_cast<double>(jt->second);
      } else if (name == "shard.children_peak_rss_mb") {
        value = worker_peak;  // 0 without forked workers
      } else if (name == "trace.overhead_s") {
        value = median(traced_wall) - median(untraced_wall);
      } else {
        std::vector<double> phase;
        for (const SetupRecord& s : setups) {
          if (const auto st = s.layer.find(name); st != s.layer.end()) {
            phase.push_back(st->second);
          }
        }
        value = phase.empty() ? layer_median(traced_jobs, name) : median(phase);
      }
      metric(name, value, m.unit);
    }
  }

  // ---- Report -----------------------------------------------------------
  JsonObject failure_kinds;
  for (const auto& [kind, n] : failures) failure_kinds.count(kind, n);
  std::string moved_list = "[";
  for (std::size_t i = 0; i < moved.size(); ++i) {
    moved_list += (i == 0 ? "" : ", ") + quote(moved[i]);
  }
  moved_list += "]";
  JsonObject exact;
  for (const auto& [name, value] : setup_counts) exact.count(name, value);
  for (const auto& [name, value] : job_counts) exact.count(name, value);

  JsonObject report;
  report.text("workload", args.workload)
      .count("seed", args.seed)
      .text("shape", workload->shape())
      .number("run_seconds", args.seconds)
      .count("trace", args.trace ? 1 : 0)
      .count("nproc", std::thread::hardware_concurrency())
      .text("cpu_model", cpu_model())
      .text("compiler", compiler())
      .text("build_type", PERFBENCH_BUILD_TYPE)
      .text("git_commit", args.commit)
      .number("probe_s", median(probes))
      .number("probe_sweep_s", median(sweeps))
      .number("probe_chain_s", median(chains))
      .number("host_scale", host_scale)
      .number("steal_frac", steal_frac)
      .count("setup_reps", setups.size())
      .number("setup_s", setup_s)
      .number("setup_wall_s", setup_wall_s)
      .number("setup_first_wall_s", setups.front().seconds)
      .number("process_to_jobs_s", process_to_jobs)
      .number("loop_seconds", loop_seconds)
      .count("timed_jobs", untraced.size())
      .count("traced_jobs", traced_wall.size())
      .number("job_min_s", quantile(untraced, 0.0))
      .number("job_p25_s", quantile(untraced, 0.25))
      .number("job_p50_s", median(untraced))
      .number("job_p75_s", quantile(untraced, 0.75))
      .number("job_wall_p50_s", median(untraced_wall));
  // The highest percentile reported has at least ten samples beyond it.
  if (untraced.size() >= 100) {
    report.number("job_p90_s", quantile(untraced, 0.9));
  }
  report.number("self_peak_rss_mb", self_peak)
      .number("children_peak_rss_mb", children_peak)
      .number("rss_at_fork_mb", median(rss_at_call))
      .number("worker_peak_rss_mb", worker_peak)
      .number("failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted))
      .raw("failures_by_kind", failure_kinds.str())
      .raw("exact_counts", exact.str())
      .raw("moved_counts", moved_list);
  if (args.trace) {
    report.number("traced_job_wall_p50_s", median(traced_wall));
    const std::string trace_path =
        (std::filesystem::path(args.workdir) /
         (args.workload + "-seed" + std::to_string(args.seed) +
          ".trace.json"))
            .string();
    tracer.write_chrome(trace_path);
    report.text("trace_file", trace_path);
  }
  std::cout << report.str() << "\n";

  JsonObject result;
  result.raw("correct", correct ? "true" : "false")
      .count("attempted", attempted)
      .count("failed", failed)
      .raw("metrics", metrics.str());
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    if (!perfbench::parse_args(argc, argv, args)) {
      std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds "
                   "<s> --trace <0|1> --workdir <dir> [--commit <sha>] "
                   "[--tiny] [--perturb-reference]\n";
      return 2;
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
