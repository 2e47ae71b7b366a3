// Shared pieces of the multi-version serving benchmark: timing, latency
// populations, the run report, output checks, and the traced run's span
// log and per-layer accumulators.
#ifndef MVBENCH_BENCH_H_
#define MVBENCH_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "inverda/inverda.h"
#include "util/random.h"

namespace mvbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Median(std::vector<double> v);

/// One latency population (nanoseconds per operation).
class Latencies {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  void Append(const Latencies& other) {
    ns_.insert(ns_.end(), other.ns_.begin(), other.ns_.end());
  }
  size_t size() const { return ns_.size(); }
  /// Nearest-rank percentile in microseconds; `q` in (0, 1].
  double PercentileUs(double q) const;

 private:
  std::vector<int64_t> ns_;
};

/// Everything one app thread measures during traffic.
struct Traffic {
  Latencies reads;    // point reads (Get)
  Latencies writes;   // point writes (Insert / Update / Delete)
  int64_t point_ns = 0;   // time inside point operations
  int64_t select_ns = 0;  // time inside full-version Selects
  int64_t select_rows = 0;
  int64_t selects = 0;
  /// Count and time of each operation class, e.g. ("inverda.Get",
  /// "TasKy2", "Author"); the names are string literals, compared by
  /// address (by content when merging rounds).
  struct Class {
    const char* op;
    const char* version;
    const char* table;
    int64_t ops = 0;
    int64_t ns = 0;
  };
  std::vector<Class> classes;
  void Count(const char* op, const char* version, const char* table,
             int64_t ns) {
    for (Class& c : classes) {
      if (c.op == op && c.version == version && c.table == table) {
        c.ops += 1;
        c.ns += ns;
        return;
      }
    }
    classes.push_back({op, version, table, 1, ns});
  }
  void Append(const Traffic& o) {
    reads.Append(o.reads);
    writes.Append(o.writes);
    point_ns += o.point_ns;
    select_ns += o.select_ns;
    select_rows += o.select_rows;
    selects += o.selects;
    for (const Class& c : o.classes) {
      auto same = [&c](const Class& mine) {
        return std::string(mine.op) == c.op &&
               std::string(mine.version) == c.version &&
               std::string(mine.table) == c.table;
      };
      auto it = std::find_if(classes.begin(), classes.end(), same);
      if (it == classes.end()) {
        classes.push_back(c);
      } else {
        it->ops += c.ops;
        it->ns += c.ns;
      }
    }
  }
  int64_t point_ops() const {
    return static_cast<int64_t>(reads.size() + writes.size());
  }
};

/// Operations attempted and failed, plus the failure messages.
class Checks {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and prints it (first 20 only).
  void Fail(const std::string& what);
  /// Counts one failed operation of a known-fault probe: it is in failed()
  /// but not against correct(), which speaks of the other operations.
  void FailKnown(const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_ + known_failed_; }
  bool correct() const { return failed_ == 0; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t known_failed_ = 0;
};

/// Live keys with O(1) random pick and removal.
class KeyPool {
 public:
  void Add(int64_t key);
  void Remove(int64_t key);
  size_t size() const { return keys_.size(); }
  int64_t Pick(inverda::Random* rng) const {
    return keys_[static_cast<size_t>(rng->NextUint64(keys_.size()))];
  }
  const std::vector<int64_t>& keys() const { return keys_; }

 private:
  std::vector<int64_t> keys_;
  std::unordered_map<int64_t, size_t> pos_;
};

/// A metric as printed in the final JSON line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The traced run's span log: one entry per benchmark call into a module's
/// public function. Spans stay in memory and are written out at the end.
/// `op` groups the spans of one app request; `parent` is the index of the
/// op's first span (-1 for that root span itself).
class SpanLog {
 public:
  struct Span {
    int32_t name = 0;
    int32_t parent = -1;
    int64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  /// Opens a span and returns its index (or -1 once the cap is reached).
  int32_t Begin(const char* name, int64_t op, int32_t parent = -1);
  void End(int32_t index);
  int64_t NewOp() { return next_op_.fetch_add(1) + 1; }
  /// Writes "op parent name start_ns end_ns" lines; returns false on I/O
  /// error.
  bool Write(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  int32_t NameId(const char* name);
  static constexpr size_t kCap = 2'000'000;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, int32_t> ids_;
  std::atomic<int64_t> next_op_{0};
};

/// Times the app's calls into the facade: each call counts as an attempted
/// operation, gets a root span when `spans` is set (the traced run), and
/// books its time into `traffic` under its class (name, version, table).
class AppTimer {
 public:
  AppTimer(Checks* checks, SpanLog* spans) : checks_(checks), spans_(spans) {}

  Traffic traffic;

  /// A point operation; `write` picks the latency population. Sets *op to
  /// the call's span op id (0 when untraced).
  template <typename F>
  auto Point(bool write, const char* name, const char* version,
             const char* table, int64_t* op, F&& call) {
    int64_t ns = 0;
    auto result = Call(name, version, table, op, &ns, call);
    (write ? traffic.writes : traffic.reads).Add(ns);
    traffic.point_ns += ns;
    return result;
  }

  /// A full Select; *ns receives its time.
  template <typename F>
  auto Select(const char* version, const char* table, int64_t* op,
              int64_t* ns, F&& call) {
    auto rows = Call("inverda.Select", version, table, op, ns, call);
    traffic.select_ns += *ns;
    traffic.selects += 1;
    if (rows.ok()) traffic.select_rows += static_cast<int64_t>(rows->size());
    return rows;
  }

 private:
  template <typename F>
  auto Call(const char* name, const char* version, const char* table,
            int64_t* op, int64_t* ns, F& call) {
    checks_->Attempt();
    *op = spans_ != nullptr ? spans_->NewOp() : 0;
    int32_t span = spans_ != nullptr ? spans_->Begin(name, *op) : -1;
    int64_t t0 = NowNs();
    auto result = call();
    *ns = NowNs() - t0;
    if (spans_ != nullptr) spans_->End(span);
    traffic.Count(name, version, table, *ns);
    return result;
  }

  Checks* checks_;
  SpanLog* spans_;
};

/// Per-layer samples of the traced run, by name. Thread-safe.
class Layers {
 public:
  void Add(const std::string& name, double value);
  /// Mean of the values added under `name` (0 when none were).
  double Mean(const std::string& name) const;
  /// Median of the values added under `name` (0 when none were).
  double Median(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> values_;
};

/// Engine-side kernel self times from one access trace tree: adds
/// "<kernel>.derive" / "<kernel>.propagate" self nanoseconds (span minus
/// nested kernel spans) into `layers`.
void AddKernelSelfTimes(const inverda::obs::TraceSpan& span, Layers* layers);

/// Payload bytes of one stored row: 8 for the key plus 8 per number, 1 per
/// bool, the length of each string.
int64_t RowBytes(const inverda::Row& row);

/// Peak resident set of this process in MB.
double PeakRssMb();

}  // namespace mvbench

#endif  // MVBENCH_BENCH_H_
