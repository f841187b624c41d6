#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/memory_tracker.hpp"
#include "runtime/spin_lock.hpp"

namespace ipregel {

/// Single-message mailboxes for the push-based combiners (paper sections
/// 6.1 and 6.3).
///
/// With a combiner, a mailbox is either empty or holds exactly one combined
/// message, so the whole inbox layer is two flat arrays (message + flag) —
/// no dynamically resizable queues, which is the heart of the paper's
/// memory-footprint argument. Mailboxes are double-buffered by superstep
/// parity: messages sent during superstep S are delivered into generation
/// (S+1)&1 while generation S&1 is being consumed, which is the BSP
/// message-visibility rule.
///
/// Delivery is the data race the paper discusses: multiple senders may
/// target the same recipient concurrently, so each vertex's next-generation
/// slot is guarded by one lock. `Lock` is std::mutex for the block-waiting
/// version (40 bytes on this toolchain) or runtime::SpinLock for the
/// busy-waiting version (4 bytes) — the 90% data-race-protection memory
/// reduction of section 6.1. Consumption needs no lock: generation S&1 is
/// only touched by the owning vertex's thread during superstep S.
template <typename Msg, typename Lock>
class PushMailboxes {
 public:
  explicit PushMailboxes(std::size_t num_slots)
      : inbox_{std::vector<Msg>(num_slots), std::vector<Msg>(num_slots)},
        has_{std::vector<std::uint8_t>(num_slots, 0),
             std::vector<std::uint8_t>(num_slots, 0)},
        locks_(num_slots),
        mailbox_mem_(runtime::MemCategory::kMailboxes,
                     2 * num_slots * (sizeof(Msg) + sizeof(std::uint8_t))),
        lock_mem_(runtime::MemCategory::kLocks, num_slots * sizeof(Lock)) {}

  /// Delivers `msg` into `slot`'s generation-`gen` mailbox, combining with
  /// an existing message via `combine(Msg& old, const Msg& incoming)`.
  /// Returns true when the mailbox was empty (first message this
  /// generation) — the selection bypass uses this to claim the recipient.
  template <typename Combine>
  bool deliver(unsigned gen, std::size_t slot, const Msg& msg,
               Combine&& combine) {
    std::lock_guard<Lock> guard(locks_[slot]);
    if (has_[gen][slot] != 0) {
      combine(inbox_[gen][slot], msg);
      return false;
    }
    inbox_[gen][slot] = msg;
    has_[gen][slot] = 1;
    return true;
  }

  /// Takes the combined message of generation `gen` for `slot`, clearing
  /// the flag. Owner-thread only; lock-free by the BSP argument above.
  bool consume(unsigned gen, std::size_t slot, Msg& out) noexcept {
    if (has_[gen][slot] == 0) {
      return false;
    }
    has_[gen][slot] = 0;
    out = inbox_[gen][slot];
    return true;
  }

  /// True when `slot` has an undelivered message in generation `gen`
  /// (scan-all selection checks this without consuming).
  [[nodiscard]] bool has_message(unsigned gen,
                                 std::size_t slot) const noexcept {
    return has_[gen][slot] != 0;
  }

  [[nodiscard]] static constexpr std::size_t lock_bytes_per_vertex() noexcept {
    return sizeof(Lock);
  }

  /// Empties both generations (between independent runs of an engine).
  void reset() noexcept {
    std::fill(has_[0].begin(), has_[0].end(), std::uint8_t{0});
    std::fill(has_[1].begin(), has_[1].end(), std::uint8_t{0});
  }

  /// Raw views of one generation, for checkpoint capture at the superstep
  /// barrier (no delivery is concurrent with the barrier, so these are
  /// stable to read).
  [[nodiscard]] std::span<const Msg> messages(unsigned gen) const noexcept {
    return inbox_[gen];
  }
  [[nodiscard]] std::span<const std::uint8_t> flags(
      unsigned gen) const noexcept {
    return has_[gen];
  }

  /// Restores one generation from a snapshot (the other is cleared);
  /// checkpoint recovery only.
  void restore(unsigned gen, std::span<const Msg> messages,
               std::span<const std::uint8_t> flags) noexcept {
    reset();
    std::copy(messages.begin(), messages.end(), inbox_[gen].begin());
    std::copy(flags.begin(), flags.end(), has_[gen].begin());
  }

  /// Mutable raw views — integrity::FlipPlan fault injection ONLY (the
  /// engine corrupts a quiescent generation at a superstep barrier).
  [[nodiscard]] std::span<Msg> corrupt_messages(unsigned gen) noexcept {
    return inbox_[gen];
  }
  [[nodiscard]] std::span<std::uint8_t> corrupt_flags(unsigned gen) noexcept {
    return has_[gen];
  }

 private:
  std::vector<Msg> inbox_[2];
  std::vector<std::uint8_t> has_[2];
  std::vector<Lock> locks_;
  runtime::MemReservation mailbox_mem_;
  runtime::MemReservation lock_mem_;
};

/// Outboxes for the pull-based ("broadcast") combiner (paper section 6.2).
///
/// A sender buffers the value it wants to broadcast in its own outbox; at
/// the next superstep each running vertex fetches from its in-neighbours'
/// outboxes and combines locally. All cross-vertex interaction is read-only
/// and all writes are owner-only, so no locks exist at all — the race-free
/// design whose data-race-protection footprint is zero.
///
/// Outboxes are double-buffered like push mailboxes. The consumed
/// generation's flags must be wiped between supersteps (a halted vertex
/// would otherwise leave a stale broadcast visible two supersteps later);
/// `clear_range` lets the engine do that wipe in parallel.
template <typename Msg>
class PullOutboxes {
 public:
  explicit PullOutboxes(std::size_t num_slots)
      : outbox_{std::vector<Msg>(num_slots), std::vector<Msg>(num_slots)},
        has_{std::vector<std::uint8_t>(num_slots, 0),
             std::vector<std::uint8_t>(num_slots, 0)},
        mem_(runtime::MemCategory::kOutboxes,
             2 * num_slots * (sizeof(Msg) + sizeof(std::uint8_t))) {}

  /// Arms `slot`'s generation-`gen` outbox. Owner-thread only.
  void broadcast(unsigned gen, std::size_t slot, const Msg& msg) noexcept {
    outbox_[gen][slot] = msg;
    has_[gen][slot] = 1;
  }

  /// Reads `slot`'s generation-`gen` outbox if armed.
  bool fetch(unsigned gen, std::size_t slot, Msg& out) const noexcept {
    if (has_[gen][slot] == 0) {
      return false;
    }
    out = outbox_[gen][slot];
    return true;
  }

  [[nodiscard]] bool armed(unsigned gen, std::size_t slot) const noexcept {
    return has_[gen][slot] != 0;
  }

  /// Wipes the armed flags of generation `gen` for slots [begin, end).
  void clear_range(unsigned gen, std::size_t begin, std::size_t end) noexcept {
    std::fill(has_[gen].begin() + static_cast<std::ptrdiff_t>(begin),
              has_[gen].begin() + static_cast<std::ptrdiff_t>(end),
              std::uint8_t{0});
  }

  /// Empties both generations (between independent runs of an engine).
  void reset() noexcept {
    std::fill(has_[0].begin(), has_[0].end(), std::uint8_t{0});
    std::fill(has_[1].begin(), has_[1].end(), std::uint8_t{0});
  }

  /// Raw views / restore of one generation — checkpoint capture and
  /// recovery, same contract as PushMailboxes.
  [[nodiscard]] std::span<const Msg> messages(unsigned gen) const noexcept {
    return outbox_[gen];
  }
  [[nodiscard]] std::span<const std::uint8_t> flags(
      unsigned gen) const noexcept {
    return has_[gen];
  }
  void restore(unsigned gen, std::span<const Msg> messages,
               std::span<const std::uint8_t> flags) noexcept {
    reset();
    std::copy(messages.begin(), messages.end(), outbox_[gen].begin());
    std::copy(flags.begin(), flags.end(), has_[gen].begin());
  }

  /// Mutable raw views — integrity::FlipPlan fault injection ONLY.
  [[nodiscard]] std::span<Msg> corrupt_messages(unsigned gen) noexcept {
    return outbox_[gen];
  }
  [[nodiscard]] std::span<std::uint8_t> corrupt_flags(unsigned gen) noexcept {
    return has_[gen];
  }

 private:
  std::vector<Msg> outbox_[2];
  std::vector<std::uint8_t> has_[2];
  runtime::MemReservation mem_;
};

}  // namespace ipregel
