#ifndef INVERDA_OBS_METRICS_H_
#define INVERDA_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace inverda {
namespace obs {

/// Compile-time switch of the observability instrumentation. A build
/// configured with -DINVERDA_OBS=OFF defines INVERDA_NO_OBS, which turns
/// every SpanGuard / ScopedTimer / instrumentation block in the hot paths
/// into dead code — the no-obs baseline the overhead guard
/// (scripts/obs_overhead.sh) compares against. The registry itself stays
/// functional in both builds; only the per-operation recording vanishes.
#ifdef INVERDA_NO_OBS
inline constexpr bool kObsBuild = false;
#else
inline constexpr bool kObsBuild = true;
#endif

/// Mirrors an on/off gate into a shared packed-flags word (see
/// Observability::hot()). No-op until the owner is bound to one.
inline void MirrorHotFlag(std::atomic<uint32_t>* flags, uint32_t bit,
                          bool on) {
  if (flags == nullptr) return;
  if (on) {
    flags->fetch_or(bit, std::memory_order_relaxed);
  } else {
    flags->fetch_and(~bit, std::memory_order_relaxed);
  }
}

/// Monotonic nanoseconds for latency measurements.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A named monotonic counter. Lock-free: Add is one relaxed fetch_add, so
/// counters sit directly on the hot access path. Obtained once from the
/// registry (the pointer is stable for the registry's lifetime) and then
/// bumped without any lookup.
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket latency histogram (nanoseconds). The bucket edges are a
/// static geometric ladder (factor 4 from 250 ns to 4 s, plus an overflow
/// bucket), so two histograms are always comparable and a snapshot is a
/// plain array copy. Record is lock-free: one bucket fetch_add plus the
/// count/sum accumulators, all relaxed.
class Histogram {
 public:
  /// Number of buckets including the overflow bucket.
  static constexpr int kNumBuckets = 13;

  /// Inclusive upper bounds of buckets 0..kNumBuckets-2 in nanoseconds; a
  /// value v lands in the first bucket with v <= bound. Values above the
  /// last bound land in the overflow bucket.
  static const std::array<int64_t, kNumBuckets - 1>& BucketBounds();

  void Record(int64_t ns);

  /// A coherent-enough copy of the counters (individually relaxed loads;
  /// concurrent Records may straddle the copy, counts never go backwards).
  struct Snapshot {
    int64_t count = 0;
    int64_t sum_ns = 0;
    std::array<int64_t, kNumBuckets> buckets{};

    double mean_ns() const {
      return count > 0 ? static_cast<double>(sum_ns) / count : 0.0;
    }
  };
  Snapshot snapshot() const;

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum_ns() const { return sum_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// One named value in a metrics snapshot.
struct MetricValue {
  std::string name;
  int64_t value = 0;
};

/// One named histogram in a metrics snapshot.
struct HistogramValue {
  std::string name;
  Histogram::Snapshot hist;
};

/// A point-in-time copy of every metric the registry knows: push counters
/// and histograms plus the values pulled from registered sources, each
/// sorted by name. Renderable to aligned text (the shell's METRICS
/// command) and JSON (bench artifacts, METRICS JSON); the JSON schema is
/// documented in docs/observability.md.
struct MetricsSnapshot {
  std::vector<MetricValue> counters;
  std::vector<HistogramValue> histograms;

  /// The counter named `name`, or 0 when absent.
  int64_t value(const std::string& name) const;
  bool has(const std::string& name) const;

  /// The histogram named `name`, or nullptr when absent.
  const Histogram::Snapshot* histogram(const std::string& name) const;

  std::string ToText() const;
  std::string ToJson() const;
};

/// The process-wide-per-Inverda registry of named counters, histograms and
/// pull-sources — the single stats surface behind Inverda::Metrics().
///
/// Two kinds of metrics co-exist:
///  - push metrics: counter()/histogram() hand out stable pointers that
///    components cache once and bump lock-free on the hot path;
///  - pull sources: components that already keep their own (relaxed-atomic)
///    counters — the plan cache, the plan compiler, the access profile —
///    register a snapshot callback and an optional reset callback, so their
///    numbers appear in the same snapshot without double bookkeeping (and
///    therefore cannot drift from the component's own view).
///
/// The registry mutex guards only the name maps and the source list; it is
/// taken on registration and snapshot, never on the hot recording path.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The counter / histogram named `name`, created on first use. The
  /// returned pointer stays valid for the registry's lifetime.
  Counter* counter(const std::string& name);
  Histogram* histogram(const std::string& name);

  using SourceFn = std::function<std::vector<MetricValue>()>;
  using ResetFn = std::function<void()>;

  /// Registers a pull-source: `snapshot_fn` contributes named values to
  /// every Snapshot(); `reset_fn` (may be null for monotonic sources) is
  /// invoked by Reset(). Re-registering a name replaces the source.
  void RegisterSource(const std::string& name, SourceFn snapshot_fn,
                      ResetFn reset_fn = nullptr);

  /// Detailed-timing gate. Latency histograms and per-kernel timers cost
  /// two clock reads per measurement — 20-50% on a sub-microsecond point
  /// get — so the access layer records them only while this is enabled
  /// (one relaxed load on the hot path). Counters and pull-sources are
  /// always on. The shell's TRACE ON, the benches' span aggregation and
  /// the tests enable it; scripts/obs_overhead.sh guards the disabled
  /// cost against a no-obs build.
  bool timing_enabled() const {
    if constexpr (!kObsBuild) return false;
    return timing_.load(std::memory_order_relaxed);
  }
  void set_timing_enabled(bool on) {
    timing_.store(on, std::memory_order_relaxed);
    MirrorHotFlag(hot_flags_, hot_bit_, on);
  }

  /// Wired by Observability: set_timing_enabled additionally mirrors the
  /// gate into the shared hot-flags word the access layer polls.
  void BindHotFlag(std::atomic<uint32_t>* flags, uint32_t bit) {
    hot_flags_ = flags;
    hot_bit_ = bit;
  }

  /// A sorted copy of every counter, histogram and source value.
  MetricsSnapshot Snapshot() const;

  /// The single reset point: zeroes every push counter and histogram and
  /// invokes every source's reset callback (sources without one — e.g. the
  /// plan compiler's monotonic walk counters — keep their values).
  void Reset();

  /// Convenience: Snapshot().value(name).
  int64_t value(const std::string& name) const { return Snapshot().value(name); }

 private:
  struct Source {
    SourceFn snapshot;
    ResetFn reset;
  };

  std::atomic<bool> timing_{false};
  std::atomic<uint32_t>* hot_flags_ = nullptr;
  uint32_t hot_bit_ = 0;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, Source> sources_;
};

/// RAII latency measurement into a histogram. Compiles to nothing in a
/// no-obs build; a null histogram makes it a no-op (used to skip nested
/// recursion levels).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) {
    if constexpr (kObsBuild) {
      if (hist != nullptr) [[unlikely]] {
        hist_ = hist;
        start_ = NowNanos();
      }
    }
  }
  ~ScopedTimer() {
    if constexpr (kObsBuild) {
      if (hist_ != nullptr) [[unlikely]] hist_->Record(NowNanos() - start_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;
  int64_t start_ = 0;
};

}  // namespace obs
}  // namespace inverda

#endif  // INVERDA_OBS_METRICS_H_
