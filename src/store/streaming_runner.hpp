#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "core/engine.hpp"
#include "core/run_error.hpp"
#include "graph/types.hpp"
#include "store/paged_graph.hpp"

namespace ipregel::store {

/// Which message-delivery scheme the streaming superstep uses.
enum class StreamMode : std::uint8_t {
  /// Pull/broadcast: runs Engine<Program, CombinerKind::kPull> over the
  /// paged graph. Senders arm a single resident outbox value, receivers
  /// gather from in-neighbours in CSR order (streaming the in-target
  /// pages). It is the in-RAM engine's own gather over the same array
  /// order, so results are bit-identical to the in-RAM pull engine for any
  /// program — including float programs like PageRank.
  kPull,
  /// Push/broadcast: runs Engine<Program, CombinerKind::kSpinlockPush>
  /// over the paged graph. Senders stream their out-target pages and
  /// combine into the receiver's single-slot resident inbox under a
  /// per-vertex spinlock. Delivery order depends on thread interleaving,
  /// so bit-identity versus the in-RAM engine holds for programs whose
  /// combiner is order-insensitive (min/max/sum-of-ints — e.g. SSSP,
  /// Hashmin), the same caveat the in-RAM push combiners carry.
  kPush,
};

/// Options for a streaming (beyond-RAM) run.
struct PagedRunOptions {
  /// Engine threads; 0 means one.
  std::size_t threads = 1;
  std::size_t max_supersteps = static_cast<std::size_t>(-1);
  /// Cooperative cancel flag, polled like the engine's
  /// guards.cancel_token.
  const std::atomic<bool>* cancel_token = nullptr;
};

/// Statistics of a streaming run: the engine's RunResult plus the cache
/// counters accumulated while edges streamed through.
struct PagedRunResult {
  RunResult run{};
  PageCacheStats cache{};
};

/// Beyond-RAM runs: the Engine over a PagedGraph edge source. Vertex
/// values, halted flags and mailboxes stay resident (O(V), the engine's
/// own state); edge topology streams from a PagedStore through a
/// budget-charged PageCache (O(E), the part that does not fit).
///
/// This adapter only picks the engine for a StreamMode and adds the cache
/// counters to the result; the superstep loop, thread pool, cancel and
/// watchdog guards, and failure taxonomy are the engine's. A page that
/// cannot be served (after the cache's bounded retry/quarantine ladder),
/// or a simulated power cut, surfaces as RunError{kPageError}, also when
/// the read happened inside compute() through broadcast(); compute()
/// exceptions map to kUserException. run_checked() converts these to a
/// RunOutcome.
template <typename Program>
class StreamingRunner {
 public:
  using Value = typename Program::value_type;

  StreamingRunner(PagedGraph& graph, Program program = {},
                  PagedRunOptions options = {})
      : graph_(graph), program_(std::move(program)) {
    options_.threads = std::max<std::size_t>(options.threads, 1);
    options_.max_supersteps = options.max_supersteps;
    options_.guards.cancel_token = options.cancel_token;
  }

  StreamingRunner(const StreamingRunner&) = delete;
  StreamingRunner& operator=(const StreamingRunner&) = delete;

  /// Runs to completion (or the superstep cap). Throws RunError;
  /// reentrant — every call reinitialises vertex state.
  PagedRunResult run(StreamMode mode) {
    PagedRunResult out;
    out.run = with_engine(mode, [](auto& engine) { return engine.run(); });
    out.cache = graph_.cache().stats();
    return out;
  }

  /// Typed-failure entry point: RunError becomes outcome data, exactly
  /// like Engine::run_checked.
  RunOutcome run_checked(StreamMode mode) {
    return with_engine(mode,
                       [](auto& engine) { return engine.run_checked(); });
  }

  /// Vertex values of the last run, indexed by slot (empty before the
  /// first run).
  [[nodiscard]] const std::vector<Value>& values() const noexcept {
    static const std::vector<Value> kNone;
    return values_ != nullptr ? *values_ : kNone;
  }
  [[nodiscard]] const Value& value_of(graph::vid_t id) const noexcept {
    return values()[graph_.slot_of(id)];
  }

 private:
  using PushEngine =
      Engine<Program, CombinerKind::kSpinlockPush, false, PagedGraph>;
  // The pull engine only exists for broadcast-only programs.
  using PullEngine =
      std::conditional_t<Program::broadcast_only,
                         Engine<Program, CombinerKind::kPull, false, PagedGraph>,
                         std::monostate>;

  /// Calls `fn` on the engine for `mode`, constructing it (and freeing the
  /// other mode's vertex state) when the mode changes.
  template <typename Fn>
  auto with_engine(StreamMode mode, Fn&& fn) {
    if (mode == StreamMode::kPull) {
      if constexpr (!Program::broadcast_only) {
        throw std::invalid_argument(
            "the pull stream mode requires broadcast-only communication");
      } else {
        return fn(bind(pull_, push_));
      }
    }
    return fn(bind(push_, pull_));
  }

  template <typename E, typename Other>
  E& bind(std::optional<E>& engine, std::optional<Other>& other) {
    if (!engine) {
      values_ = nullptr;
      other.reset();
      engine.emplace(graph_, program_, options_);
      values_ = &engine->value_vector();
    }
    return *engine;
  }

  PagedGraph& graph_;
  Program program_;
  EngineOptions options_;
  std::optional<PullEngine> pull_;
  std::optional<PushEngine> push_;
  const std::vector<Value>* values_ = nullptr;
};

}  // namespace ipregel::store
