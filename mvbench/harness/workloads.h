// The benchmark's workloads. Each builds its own data set from the seed,
// runs a fixed amount of work derived from --seconds, checks every output
// against the benchmark's own model, and fills a RunOutput.
#ifndef MVBENCH_WORKLOADS_H_
#define MVBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace mvbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  /// Traced run: spans around every benchmark call, layer probes, and the
  /// engine's timing gate on.
  bool traced = false;
  /// Self-test: after the first checkpoint, overwrite one row of a
  /// physical table and re-run the checkpoint, which must report it.
  bool corrupt = false;
  /// SampleSetup times set-ups (off in --trace 1, which reports no
  /// setup_s, to keep its two passes short).
  bool sample_setups = true;
};

/// One round of a workload: the same sequence of traffic phases and
/// migrations, repeated several times per run on one instance. The first
/// round of a run warms the engine up (the first MATERIALIZE round trip
/// creates state that later ones reuse) and is not reported; the
/// end-to-end metrics pool the samples of all later rounds, which averages
/// out the host's speed swings of several seconds.
struct Round {
  Traffic traffic;                // the app's calls
  std::vector<double> migrate_s;  // one per MATERIALIZE
};

struct RunOutput {
  Checks checks;
  std::vector<Round> rounds;
  /// One per set-up: the serving instance's, then one per SampleSetup.
  std::vector<double> setup_s;
  // Traced run only.
  SpanLog spans;
  Layers layers;
  std::vector<Metric> per_layer;
};

/// Point operations per second of the app's time in timed calls.
inline double OpsPerSecond(const Traffic& t) {
  int64_t ns = t.point_ns + t.select_ns;
  return ns > 0 ? static_cast<double>(t.point_ops()) / Seconds(ns) : 0;
}

int RunTaskyOltp(const RunConfig& config, RunOutput* out);
int RunWikiChain(const RunConfig& config, RunOutput* out);

/// One set-up of the workload on a fresh instance (build, load, warm up),
/// added to out->setup_s; returns non-zero on failure.
int SetupTaskyOltp(const RunConfig& config, RunOutput* out);
int SetupWikiChain(const RunConfig& config, RunOutput* out);

/// Times one more set-up of config.workload in a child process of this
/// harness (mvbench --setup-only), which leaves the serving instance and
/// this process's peak memory untouched, and adds it to out->setup_s.
/// The workloads call it between rounds, so that setup_s, the median of
/// all set-ups, samples the host's speed across the whole run as the
/// traffic metrics do: the host switches between fast and slow states that
/// last tens of seconds, and set-ups taken back to back all land in one.
/// Returns false when the child fails.
bool SampleSetup(const RunConfig& config, RunOutput* out);

/// Fills out->per_layer with every per-layer metric, in one fixed list for
/// all workloads (0 where the workload never enters the layer), from the
/// layer accumulators and the engine's registry.
void FinishPerLayer(inverda::Inverda& db, RunOutput* out);

/// Latch share and plan shape, recorded by the workloads while tracing.
struct PlanShape {
  int hops = 0;
  int steps = 0;
  int footprint = 0;
};
/// The shape of the farthest of `targets` (version, table) under the
/// current materialization.
PlanShape FarthestPlan(
    inverda::Inverda& db,
    const std::vector<std::pair<std::string, std::string>>& targets);

/// Payload bytes in every physical table divided by the payload bytes
/// visible through the given (version, table) pairs.
double BytesPerUserByte(
    inverda::Inverda& db,
    const std::vector<std::pair<std::string, std::string>>& visible);

/// Times Table::Find on `keys` and a full Table::Scan of the physical data
/// table behind (version, table); adds storage.find_ns and
/// storage.scan_ns_per_row. Call only while no DDL can run.
void ProbeStorage(inverda::Inverda& db, const std::string& version,
                  const std::string& table, const std::vector<int64_t>& keys,
                  Layers* layers);

/// Drops the compiled plans and times AccessLayer::PrewarmPlans (adds
/// plan.prewarm_ms). Call only while no other thread touches the engine.
void ProbePrewarm(inverda::Inverda& db, Layers* layers);

/// Facade decomposition of one sampled point read of the traced run (span
/// op `op`): back to back, VersionCatalog::ResolveTable,
/// AccessLayer::GetPlan, AccessLayer::FindVersion of `find_key` and the
/// facade Get of `get_key` (two keys of the same table, equally cold in
/// cache); inverda.get_self_ns is the Get minus the resolve and the
/// FindVersion. A Get of `trace_key` with the engine's access tracer on
/// then yields the kernels' self times. Returns the FindVersion time in
/// ns. AccessLayer calls bypass the facade lock: probe only while no DDL
/// can run.
struct ReadProbe {
  int64_t op = 0;
  int64_t find_key = 0;
  int64_t get_key = 0;
  int64_t trace_key = 0;
};
int64_t ProbeRead(inverda::Inverda& db, const std::string& version,
                  const std::string& table, const ReadProbe& probe,
                  RunOutput* out);

/// The same for writes: updates `apply_key` through
/// AccessLayer::ApplyToVersion and `update_key` through the facade (timed),
/// then `trace_key` through the facade with the tracer on. The caller
/// records the three writes in its model. Returns the ApplyToVersion time
/// in ns.
struct WriteProbe {
  int64_t op = 0;
  int64_t apply_key = 0;
  inverda::Row apply_row;
  int64_t update_key = 0;
  inverda::Row update_row;
  int64_t trace_key = 0;
  inverda::Row trace_row;
};
int64_t ProbeWrite(inverda::Inverda& db, const std::string& version,
                   const std::string& table, const WriteProbe& probe,
                   RunOutput* out);

/// The same for one Select that took `select_ns` and returned `rows`:
/// times AccessLayer::ScanVersionBatch (adds inverda.select_ns_per_row).
void ProbeSelect(inverda::Inverda& db, const std::string& version,
                 const std::string& table, int64_t select_ns, int64_t rows,
                 int64_t op, RunOutput* out);

}  // namespace mvbench

#endif  // MVBENCH_WORKLOADS_H_
