// Measurement primitives of the benchmark: timing, sample sets with the
// percentile rule, in-memory span tracing with self time, and the result
// record the driver script reads.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread). Under paravirtual time
/// accounting it excludes the time a vCPU is descheduled by the host and the
/// time a thread waits for a CPU, which wall time counts.
inline std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Wall and process CPU time read together, or a span of both.
struct Clocks {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;

  static Clocks Now() { return {NowNs(), CpuNs()}; }
  Clocks operator-(const Clocks& o) const { return {wall_ns - o.wall_ns, cpu_ns - o.cpu_ns}; }
  Clocks& operator+=(const Clocks& o) {
    wall_ns += o.wall_ns;
    cpu_ns += o.cpu_ns;
    return *this;
  }
};

/// A percentile read from a sample set: the percentile actually used, its
/// value and how many samples it rests on.
struct Tail {
  double percentile = 0.0;  ///< In (0, 1].
  double value = 0.0;
  std::size_t samples = 0;
};

/// The percentile rule: the highest percentile, at most `target`, that has
/// at least 10 samples strictly above it (nearest-rank). With fewer than 11
/// samples no percentile qualifies and the maximum is reported.
template <typename T>
Tail TailPercentile(std::vector<T> values, double target) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  const std::size_t n = values.size();
  // Nearest rank of the target, pulled down until 10 samples lie beyond it.
  std::size_t index = static_cast<std::size_t>(
                          std::ceil(target * static_cast<double>(n))) - 1;
  index = std::min(index, n - 1);
  index = n >= 11 ? std::min(index, n - 11) : n - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  tail.value = static_cast<double>(values[index]);
  tail.percentile = static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

/// The percentile rule applied to each of up to `chunks` consecutive slices
/// of the samples (in the order they were taken), reporting the median
/// across slices: a burst of interference on the machine moves one slice,
/// not the result. Slices hold at least enough samples for the rule to
/// reach `target`.
template <typename T>
Tail ChunkedTail(const std::vector<T>& values, double target, std::size_t chunks = 9) {
  const std::size_t n = values.size();
  const double beyond = std::max(1.0 - target, 1e-9);
  const auto needed = static_cast<std::size_t>(std::ceil(11.0 / beyond));
  const std::size_t k = std::max<std::size_t>(1, std::min(chunks, n / needed));
  std::vector<double> per_chunk;
  Tail tail;
  for (std::size_t c = 0; c < k; ++c) {
    const std::vector<T> slice(values.begin() + static_cast<std::ptrdiff_t>(n * c / k),
                               values.begin() + static_cast<std::ptrdiff_t>(n * (c + 1) / k));
    const Tail t = TailPercentile(slice, target);
    per_chunk.push_back(t.value);
    tail.percentile = c == 0 ? t.percentile : std::min(tail.percentile, t.percentile);
  }
  std::sort(per_chunk.begin(), per_chunk.end());
  tail.value = per_chunk[(per_chunk.size() - 1) / 2];
  tail.samples = n;
  return tail;
}

/// Median (0 for an empty set).
template <typename T>
double Median(std::vector<T> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? static_cast<double>(values[n / 2])
                    : 0.5 * (static_cast<double>(values[n / 2 - 1]) +
                             static_cast<double>(values[n / 2]));
}

/// One recorded span. `parent` is the index of the enclosing span plus one
/// (0 for a root); every span of one arrival or plan boundary carries that
/// event's `id`.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory. Spans nest strictly (one caller thread), so self
/// time — a span minus the part of it its children cover — is settled when
/// the span ends. Self and total times are kept per name for every span;
/// the raw records are kept up to `keep` spans and written out at the end.
class Tracer {
 public:
  explicit Tracer(std::size_t keep = 200000) : keep_(keep) {}

  std::uint32_t Intern(const std::string& name);
  /// Opens a span at `now_ns` (NowNs() by default).
  void Begin(std::uint32_t name, std::uint64_t id, std::int64_t now_ns = -1);
  /// Closes the innermost open span.
  void End(std::int64_t now_ns = -1);

  const std::vector<float>& SelfNs(const std::string& name) const;
  const std::vector<float>& TotalNs(const std::string& name) const;
  /// Id of the innermost open span (0 when none is open).
  std::uint64_t current_id() const {
    return stack_.empty() ? 0 : stack_.back().id;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the kept spans as tab-separated lines:
  /// id, span index, parent index (+1, 0 = root), name, start_ns, end_ns.
  bool Write(const std::string& path) const;

 private:
  struct Open {
    std::uint32_t name;
    std::uint64_t id;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t kept_index;  ///< Index + 1 in spans_, 0 when not kept.
  };
  std::size_t keep_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::vector<std::vector<float>> self_;
  std::vector<std::vector<float>> total_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
};

/// RAII span on a tracer that may be null (untraced runs pass null).
class Scope {
 public:
  Scope(Tracer* tracer, std::uint32_t name, std::uint64_t id)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, id);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// One printed metric: value, unit, and the sample count it rests on.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  double percentile = 0.0;  ///< For tail metrics: the percentile used.
};

/// What one workload run reports.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< Failed correctness checks.
  std::map<std::string, Metric> metrics;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics[name] = Metric{value, unit, samples, 0.0};
  }
  void SetTail(const std::string& name, const Tail& tail,
               const std::string& unit) {
    metrics[name] = Metric{tail.value, unit, tail.samples, tail.percentile};
  }
  std::string ToJson() const;
};

/// Self-tests of the arithmetic above; returns the failures (empty = pass).
std::vector<std::string> SelfTest();

}  // namespace pb
