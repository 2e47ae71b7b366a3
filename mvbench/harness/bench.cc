#include "bench.h"

#include <sys/resource.h>

#include <cmath>
#include <fstream>

namespace mvbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Latencies::PercentileUs(double q) const {
  if (ns_.empty()) return 0;
  std::vector<int64_t> sorted = ns_;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank - 1),
                   sorted.end());
  return static_cast<double>(sorted[rank - 1]) * 1e-3;
}

void Checks::Fail(const std::string& what) {
  ++failed_;
  if (failed_ <= 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Checks::FailKnown(const std::string& what) {
  ++known_failed_;
  if (known_failed_ <= 2) {
    std::fprintf(stderr, "KNOWN FAULT: %s\n", what.c_str());
  }
}

void KeyPool::Add(int64_t key) {
  if (pos_.count(key) != 0) return;
  pos_[key] = keys_.size();
  keys_.push_back(key);
}

void KeyPool::Remove(int64_t key) {
  auto it = pos_.find(key);
  if (it == pos_.end()) return;
  size_t i = it->second;
  int64_t last = keys_.back();
  keys_[i] = last;
  pos_[last] = i;
  keys_.pop_back();
  pos_.erase(key);
}

int32_t SpanLog::NameId(const char* name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  int32_t id = static_cast<int32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(name, id);
  return id;
}

int32_t SpanLog::Begin(const char* name, int64_t op, int32_t parent) {
  // The first span of an op is its root; later spans of the same op on the
  // same thread default to children of that root.
  thread_local int64_t root_op = 0;
  thread_local int32_t root_index = -1;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kCap) return -1;
  if (parent < 0 && op == root_op) {
    parent = root_index;
  } else if (parent < 0) {
    root_op = op;
    root_index = static_cast<int32_t>(spans_.size());
  }
  Span s;
  s.name = NameId(name);
  s.parent = parent;
  s.op = op;
  s.start_ns = NowNs();
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t index) {
  if (index < 0) return;
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# op\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans_) {
    out << s.op << '\t' << s.parent << '\t'
        << names_[static_cast<size_t>(s.name)] << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

void Layers::Add(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name].push_back(value);
}

double Layers::Mean(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

double Layers::Median(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = values_.find(name);
  if (it == values_.end()) return 0;
  return mvbench::Median(it->second);
}

namespace {

// Sum of the durations of the nearest kernel spans (derive/propagate)
// below `span`, looking through the access spans (find/scan/apply) that
// the backend recursion opens between them.
int64_t NestedKernelNs(const inverda::obs::TraceSpan& span) {
  int64_t ns = 0;
  for (const inverda::obs::TraceSpan& child : span.children) {
    if (!child.kernel.empty()) {
      ns += child.duration_ns;
    } else {
      ns += NestedKernelNs(child);
    }
  }
  return ns;
}

}  // namespace

void AddKernelSelfTimes(const inverda::obs::TraceSpan& span, Layers* layers) {
  if (!span.kernel.empty() &&
      (span.name == "derive" || span.name == "propagate")) {
    int64_t self = span.duration_ns - NestedKernelNs(span);
    layers->Add(span.kernel + "." + span.name,
                static_cast<double>(std::max<int64_t>(self, 0)));
  }
  for (const inverda::obs::TraceSpan& child : span.children) {
    AddKernelSelfTimes(child, layers);
  }
}

int64_t RowBytes(const inverda::Row& row) {
  int64_t bytes = 8;
  for (const inverda::Value& v : row) {
    if (v.is_string()) {
      bytes += static_cast<int64_t>(v.AsString().size());
    } else if (v.is_bool()) {
      bytes += 1;
    } else if (!v.is_null()) {
      bytes += 8;
    }
  }
  return bytes;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace mvbench
