#pragma once

// Measurement plumbing of the benchmark, kept apart from the workloads:
// a span recorder that holds every span in memory and writes a Chrome
// trace-event file at the end, a forwarding io::Vfs that counts and times
// the store's page reads, a host-speed probe, order statistics, readers of
// the process's memory and the host's CPU ticks, and a minimal JSON writer.
// Nothing here reaches into the program: every number is taken around a
// call into one of its public entry points.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "io/vfs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One timed interval. `job` ties the spans of one job together (-1 for
/// set-up spans); `parent` is the index of the enclosing span or -1.
struct Span {
  std::string name;
  long job = -1;
  long parent = -1;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder. When disabled, open() returns -1 and close()
/// does nothing, so an untraced job pays one branch per layer call.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  long open(std::string name, long job, long parent = -1) {
    if (!enabled_) return -1;
    const auto now = Clock::now();
    spans_.push_back(Span{std::move(name), job, parent, now, now});
    return static_cast<long>(spans_.size()) - 1;
  }

  void close(long id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds since the
  /// process origin); opens in chrome://tracing or Perfetto.
  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts = seconds_between(origin_, s.start) * 1e6;
      const double dur = seconds_between(s.start, s.end) * 1e6;
      out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << ts
          << ",\"dur\":" << dur << ",\"args\":{\"job\":" << s.job
          << ",\"span\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// Scoped span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, long job, long parent = -1)
      : tracer_(tracer), id_(tracer.open(std::move(name), job, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] long id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  long id_;
};

/// Counters of the store's reads through the Vfs seam.
struct IoCounters {
  std::atomic<std::uint64_t> read_ops{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> read_ns{0};
  std::atomic<bool> enabled{false};

  void reset() {
    read_ops = 0;
    read_bytes = 0;
    read_ns = 0;
  }
};

/// Forwarding io::Vfs handed to store::PagedStore: every call goes to the
/// wrapped Vfs; positional reads are counted and timed while the counters
/// are enabled.
class CountingVfs final : public ipregel::io::Vfs {
 public:
  CountingVfs(ipregel::io::Vfs& inner, IoCounters& counters)
      : inner_(inner), counters_(counters) {}

  std::unique_ptr<File> open(const std::string& path,
                             OpenMode mode) override {
    return std::make_unique<CountingFile>(inner_.open(path, mode), counters_);
  }
  void rename(const std::string& from, const std::string& to) override {
    inner_.rename(from, to);
  }
  void unlink(const std::string& path) override { inner_.unlink(path); }
  bool exists(const std::string& path) override {
    return inner_.exists(path);
  }
  std::vector<std::string> list(const std::string& dir) override {
    return inner_.list(dir);
  }
  void fsync_dir(const std::string& dir) override { inner_.fsync_dir(dir); }
  void mkdir(const std::string& dir) override { inner_.mkdir(dir); }

 private:
  class CountingFile final : public File {
   public:
    CountingFile(std::unique_ptr<File> inner, IoCounters& counters)
        : inner_(std::move(inner)), counters_(counters) {}

    std::size_t read(void* buf, std::size_t n) override {
      return inner_->read(buf, n);
    }
    std::size_t read_at(void* buf, std::size_t n,
                        std::uint64_t offset) override {
      if (!counters_.enabled.load(std::memory_order_relaxed)) {
        return inner_->read_at(buf, n, offset);
      }
      const auto t0 = Clock::now();
      const std::size_t got = inner_->read_at(buf, n, offset);
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count();
      counters_.read_ops.fetch_add(1, std::memory_order_relaxed);
      counters_.read_bytes.fetch_add(got, std::memory_order_relaxed);
      counters_.read_ns.fetch_add(static_cast<std::uint64_t>(ns),
                                  std::memory_order_relaxed);
      return got;
    }
    void write(const void* buf, std::size_t n) override {
      inner_->write(buf, n);
    }
    void seek(std::uint64_t pos) override { inner_->seek(pos); }
    void fsync() override { inner_->fsync(); }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<File> inner_;
    IoCounters& counters_;
  };

  ipregel::io::Vfs& inner_;
  IoCounters& counters_;
};

/// Host-speed probe. Two fixed pieces of work, neither calling the
/// program, so a change to the program cannot move them:
///  - a pull-PageRank sweep, 2 rounds over 2^20 vertices with 8 random
///    in-neighbours each on 2 threads with a barrier per round (about 48 MB
///    of data); it slows when other tenants contend for the shared cache
///    and memory;
///  - a chain of 8 Mi dependent multiply-adds on each of 2 threads, touching
///    no memory; it slows with a lower clock, a busy sibling hyperthread or
///    a descheduled vCPU.
/// The probe's time is the geometric mean of the two. It runs in a helper
/// process forked before set-up, so its memory stays out of the
/// benchmark's resident set and its heap apart from the program's.
class SpeedProbe {
 public:
  struct Sample {
    double sweep_s = 0.0;
    double chain_s = 0.0;
    [[nodiscard]] double seconds() const {
      return std::sqrt(sweep_s * chain_s);
    }
  };

  /// Forks the helper; call it while this process has no other threads.
  SpeedProbe() {
    int to_child[2];
    int to_parent[2];
    if (::pipe(to_child) != 0 || ::pipe(to_parent) != 0) {
      throw std::runtime_error("speed probe: pipe failed");
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("speed probe: fork failed");
    if (pid_ == 0) {
      ::close(to_child[1]);
      ::close(to_parent[0]);
      serve(to_child[0], to_parent[1]);
      ::_exit(0);
    }
    ::close(to_child[0]);
    ::close(to_parent[1]);
    request_fd_ = to_child[1];
    reply_fd_ = to_parent[0];
  }

  /// Closes the pipe and waits for the helper to exit. Destroy the probe
  /// only after reading RUSAGE_CHILDREN: a reaped helper counts in it.
  ~SpeedProbe() {
    ::close(request_fd_);
    ::close(reply_fd_);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }

  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Runs both pieces of work once in the helper.
  Sample run() {
    const char go = 'r';
    Sample sample;
    if (::write(request_fd_, &go, 1) != 1 ||
        !read_full(reply_fd_, &sample, sizeof sample)) {
      throw std::runtime_error("speed probe: helper did not answer");
    }
    return sample;
  }

 private:
  static constexpr std::size_t kVertices = std::size_t{1} << 20;
  static constexpr std::size_t kDegree = 8;
  static constexpr int kRounds = 2;
  static constexpr std::uint64_t kChainSteps = std::uint64_t{8} << 20;

  static bool read_full(int fd, void* buf, std::size_t n) {
    auto* p = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t got = ::read(fd, p, n);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      p += got;
      n -= static_cast<std::size_t>(got);
    }
    return true;
  }

  /// The helper's loop: one sample per request byte, until the pipe closes.
  static void serve(int request_fd, int reply_fd) {
    std::vector<std::uint32_t> in(kVertices * kDegree);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t& v : in) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<std::uint32_t>((x >> 33) % kVertices);
    }
    std::vector<double> a(kVertices, 1.0 / kVertices);
    std::vector<double> b(kVertices, 0.0);
    char go = 0;
    while (read_full(request_fd, &go, 1)) {
      Sample sample;
      sample.sweep_s = sweep(in, a, b);
      sample.chain_s = chain();
      if (::write(reply_fd, &sample, sizeof sample) !=
          static_cast<ssize_t>(sizeof sample)) {
        return;
      }
    }
  }

  /// Runs `work(0)` here and `work(1)` on a second thread; returns the wall
  /// clock until both are done.
  template <typename Work>
  static double on_two_threads(const Work& work) {
    const auto t0 = Clock::now();
    std::thread other(work, 1);
    work(0);
    other.join();
    return seconds_between(t0, Clock::now());
  }

  static double sweep(const std::vector<std::uint32_t>& in,
                      std::vector<double>& a, std::vector<double>& b) {
    std::atomic<int> arrived{0};
    std::atomic<int> generation{0};
    const auto barrier = [&] {
      const int g = generation.load(std::memory_order_acquire);
      if (arrived.fetch_add(1, std::memory_order_acq_rel) == 1) {
        arrived.store(0, std::memory_order_relaxed);
        generation.store(g + 1, std::memory_order_release);
      } else {
        while (generation.load(std::memory_order_acquire) == g) {
        }
      }
    };
    return on_two_threads([&](std::size_t half) {
      double* cur = a.data();
      double* next = b.data();
      const std::size_t lo = half * kVertices / 2;
      const std::size_t hi = lo + kVertices / 2;
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t v = lo; v < hi; ++v) {
          double sum = 0.0;
          for (std::size_t k = 0; k < kDegree; ++k) {
            sum += cur[in[v * kDegree + k]];
          }
          next[v] = 0.15 / kVertices + 0.85 * sum / kDegree;
        }
        barrier();
        std::swap(cur, next);
      }
    });
  }

  static double chain() {
    std::atomic<std::uint64_t> sink{0};
    return on_two_threads([&](std::size_t half) {
      std::uint64_t x = half + 1;
      for (std::uint64_t i = 0; i < kChainSteps; ++i) {
        x = x * 6364136223846793005ULL + (x >> 17);
      }
      // Keeps the chain from being optimised away.
      sink.fetch_xor(x, std::memory_order_relaxed);
    });
  }

  pid_t pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
};

/// Linear-interpolated quantile (the "inclusive" method), q in [0, 1].
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process in MiB: VmHWM from /proc/self/status
/// (0 if unreadable). Unlike RUSAGE_SELF it starts afresh at exec, so the
/// launching process's memory is not counted.
[[nodiscard]] inline double self_peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

/// Peak resident set in MiB of the largest reaped child (a forked shard
/// worker). A forked child starts out mapping the parent's resident pages,
/// so its peak includes them.
[[nodiscard]] inline double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Current resident set of this process in MiB (0 if unreadable).
[[nodiscard]] inline double rss_mb() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// Ticks of all CPUs from /proc/stat: {steal, total}; {0, 0} if unreadable.
[[nodiscard]] inline std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t field[8] = {};
  std::uint64_t total = 0;
  for (std::uint64_t& f : field) {
    in >> f;
    total += f;
  }
  return {field[7], total};
}

/// Shortest round-trip decimal form of a double.
[[nodiscard]] inline std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

[[nodiscard]] inline std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// A flat JSON object built field by field, in insertion order.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& text(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  JsonObject& number(const std::string& key, double value) {
    return raw(key, num(value));
  }
  JsonObject& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + quote(fields_[i].first) + ": " +
             fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
