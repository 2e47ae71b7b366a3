// mvbench: multi-version serving benchmark harness.
//
//   mvbench --workload <tasky_oltp|wiki_chain> --seed <n>
//           --seconds <s> --trace <0|1> [--selftest] [--out <dir>]
//
// Prints a human-readable summary and, as the last line of standard
// output, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (which runs the workload untraced first, for the tracing
// overhead, and then traced). --selftest corrupts one stored row after the
// first checkpoint and exits 0 only if the checks report it.
// --setup-only (used by SampleSetup) sets the workload up once on a fresh
// instance and prints its time in seconds as the only line of output.
//
// "correct" is false when any check failed, except the known-fault probe's
// (tasky_oltp's stale-author reads), which count in "failed" only.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <string>

#include "workloads.h"

extern char** environ;

namespace mvbench {

namespace {
std::string g_self;  // this harness binary, as invoked (argv[0])
}  // namespace

bool SampleSetup(const RunConfig& cfg, RunOutput* out) {
  if (!cfg.sample_setups) return true;
  int fds[2];
  if (pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string self = g_self;
  std::string seed = std::to_string(cfg.seed);
  std::string workload = cfg.workload;
  char flag_workload[] = "--workload";
  char flag_seed[] = "--seed";
  char flag_setup[] = "--setup-only";
  char* argv[] = {self.data(), flag_workload, workload.data(), flag_seed,
                  seed.data(), flag_setup,    nullptr};
  pid_t pid = 0;
  int rc = posix_spawn(&pid, self.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string text;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof(buf))) != 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) break;
      text.append(buf, static_cast<size_t>(n));
    }
  }
  close(fds[0]);
  if (rc != 0) return false;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  double secs = std::strtod(text.c_str(), nullptr);
  if (secs <= 0) return false;
  out->setup_s.push_back(secs);
  return true;
}

namespace {

using RunFn = int (*)(const RunConfig&, RunOutput*);

RunFn Workload(const std::string& name) {
  if (name == "tasky_oltp") return RunTaskyOltp;
  if (name == "wiki_chain") return RunWikiChain;
  return nullptr;
}

RunFn Setup(const std::string& name) {
  if (name == "tasky_oltp") return SetupTaskyOltp;
  if (name == "wiki_chain") return SetupWikiChain;
  return nullptr;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// The reported rounds (all but the first, which warms up), pooled.
struct Pooled {
  Traffic all;
  std::vector<double> migrate_s;
};

Pooled Pool(const RunOutput& out) {
  Pooled p;
  for (size_t i = 1; i < out.rounds.size(); ++i) {
    const Round& r = out.rounds[i];
    p.all.Append(r.traffic);
    p.migrate_s.insert(p.migrate_s.end(), r.migrate_s.begin(),
                       r.migrate_s.end());
  }
  return p;
}

// The gated end-to-end metrics. The p99 latencies are printed with the
// percentile lines of PrintSamples but not gated: on tasky_oltp they sit in
// the memory-bound FK scans and moved by 0.3 (quartiles over median)
// between runs on a host whose memory speed swings.
std::vector<Metric> EndToEnd(const RunOutput& out) {
  Pooled p = Pool(out);
  const Traffic& t = p.all;
  return {
      {"setup_s", Median(out.setup_s), "s"},
      {"ops_per_s", OpsPerSecond(t), "1/s"},
      {"read_p50_us", t.reads.PercentileUs(0.50), "us"},
      {"write_p50_us", t.writes.PercentileUs(0.50), "us"},
      {"scan_rows_per_s",
       t.select_ns > 0 ? static_cast<double>(t.select_rows) / Seconds(t.select_ns)
                       : 0,
       "rows/s"},
      {"migrate_s", Mean(p.migrate_s), "s"},
      {"rss_peak_mb", PeakRssMb(), "MB"},
  };
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// Per-round figures and each operation class's share of the operations
// and of the time (the README's tables come from this).
void PrintSamples(const RunOutput& out) {
  for (size_t i = 0; i < out.rounds.size(); ++i) {
    const Traffic& t = out.rounds[i].traffic;
    std::printf("round %zu%s: ops=%lld read p50/p99 %.2f/%.1f us write "
                "p50/p99 %.2f/%.1f us scan %.0f rows/s migrate %.3f s\n",
                i, i == 0 ? " (warm-up)" : "",
                static_cast<long long>(t.point_ops()), t.reads.PercentileUs(0.5),
                t.reads.PercentileUs(0.99), t.writes.PercentileUs(0.5),
                t.writes.PercentileUs(0.99),
                t.select_ns > 0 ? static_cast<double>(t.select_rows) /
                                      Seconds(t.select_ns)
                                : 0,
                Mean(out.rounds[i].migrate_s));
  }
  std::printf("setups (s):");
  for (double s : out.setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  Pooled p = Pool(out);
  const Traffic& t = p.all;
  std::printf("samples (reported rounds): reads=%zu writes=%zu selects=%lld "
              "migrations=%zu setups=%zu; time in point ops %.3f s, in "
              "selects %.3f s\n",
              t.reads.size(), t.writes.size(), static_cast<long long>(t.selects),
              p.migrate_s.size(), out.setup_s.size(), Seconds(t.point_ns),
              Seconds(t.select_ns));
  for (const auto& [name, lat] :
       {std::pair<const char*, const Latencies*>{"reads", &t.reads},
        {"writes", &t.writes}}) {
    std::printf("  %s percentiles (us):", name);
    for (double q : {0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.9, 0.95, 0.98,
                     0.99, 0.995}) {
      std::printf(" p%g=%.1f", q * 100, lat->PercentileUs(q));
    }
    std::printf("\n");
  }
  int64_t ops = 0;
  int64_t ns = 0;
  for (const Traffic::Class& c : t.classes) {
    ops += c.ops;
    ns += c.ns;
  }
  for (const Traffic::Class& c : t.classes) {
    std::printf("  class %-16s %-7s %-7s %8lld ops (%5.1f%%) %9.2f us/op "
                "%5.1f%% of time\n",
                c.op, c.version, c.table, static_cast<long long>(c.ops),
                100.0 * static_cast<double>(c.ops) / static_cast<double>(ops),
                static_cast<double>(c.ns) * 1e-3 / static_cast<double>(c.ops),
                100.0 * static_cast<double>(c.ns) / static_cast<double>(ns));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: mvbench --workload <tasky_oltp|wiki_chain> "
               "--seed <n> --seconds <s> --trace <0|1> [--selftest] "
               "[--out <dir>]\n"
               "       mvbench --workload <name> --seed <n> --setup-only\n");
  return 2;
}

int Main(int argc, char** argv) {
  g_self = argv[0];
  RunConfig cfg;
  std::string& workload = cfg.workload;
  bool trace = false;
  bool selftest = false;
  bool setup_only = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      cfg.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return Usage();
    }
  }
  RunFn run = Workload(workload);
  if (run == nullptr || cfg.seconds < 1 || cfg.seconds > 600) return Usage();

  if (setup_only) {
    RunOutput out;
    if (Setup(workload)(cfg, &out) != 0 || out.setup_s.empty()) return 1;
    std::printf("%.10g\n", out.setup_s.back());
    return 0;
  }

  if (selftest) {
    cfg.corrupt = true;
    RunOutput out;
    if (run(cfg, &out) != 0) return 1;
    bool detected = !out.checks.correct();
    std::printf("self-test %s: %lld corrupted-row report(s)\n",
                detected ? "passed" : "FAILED",
                static_cast<long long>(out.checks.failed()));
    return detected ? 0 : 1;
  }

  cfg.sample_setups = !trace;
  RunOutput base;
  if (run(cfg, &base) != 0) return 1;
  PrintSamples(base);
  if (!trace) {
    PrintResult(base.checks.correct(), base.checks.attempted(),
                base.checks.failed(), EndToEnd(base));
    return 0;
  }
  RunConfig traced_cfg = cfg;
  traced_cfg.traced = true;
  RunOutput traced;
  if (run(traced_cfg, &traced) != 0) return 1;
  traced.per_layer.push_back(
      {"obs.trace_overhead",
       OpsPerSecond(Pool(traced).all) > 0
           ? OpsPerSecond(Pool(base).all) / OpsPerSecond(Pool(traced).all)
           : 0,
       "ratio"});
  std::string path = out_dir + "/" + workload + "-seed" +
                     std::to_string(cfg.seed) + ".spans.tsv";
  if (!traced.spans.Write(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("%zu spans written to %s\n", traced.spans.size(), path.c_str());
  int64_t attempted = base.checks.attempted() + traced.checks.attempted();
  int64_t failed = base.checks.failed() + traced.checks.failed();
  PrintResult(base.checks.correct() && traced.checks.correct(), attempted,
              failed, traced.per_layer);
  return 0;
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) { return mvbench::Main(argc, argv); }
