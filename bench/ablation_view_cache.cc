// Ablation for the paper's future-work item (4), "optimized delta code":
// the derived-view cache in the access layer. Times reads without the
// cache against a mixed 90/10 read/write workload over many independent
// lineages with the cache on. Invalidation is genealogy-scoped: a write or
// migration drops only the views whose derivation path intersects the
// write's physical footprint or the flipped SMO instances, so with writes
// confined to one lineage the other lineages' cached views stay warm.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "inverda/inverda.h"
#include "util/random.h"

using inverda::bench::CheckOk;
using inverda::bench::InitBench;
using inverda::bench::ScaledInt;
using inverda::bench::TimeMs;
using inverda::MaterializeRequest;

namespace {

constexpr const char* kTable = "tab";

struct Lineage {
  std::string base;  // materialized base version
  std::string head;  // virtual head version (reads recompute / cache)
};

// `count` disconnected genealogies, each a chain of `depth` ADD COLUMN
// evolutions on one table.
std::vector<Lineage> BuildGenealogy(inverda::Inverda* db, int count,
                                    int depth) {
  std::vector<Lineage> lineages;
  for (int i = 0; i < count; ++i) {
    std::string base = "B" + std::to_string(i);
    CheckOk(db->Execute("CREATE SCHEMA VERSION " + base +
                        " WITH CREATE TABLE tab(k0 INT, v0 TEXT);"),
            "create base");
    std::string prev = base;
    for (int j = 1; j <= depth; ++j) {
      std::string next = base + "v" + std::to_string(j);
      CheckOk(db->Execute("CREATE SCHEMA VERSION " + next + " FROM " + prev +
                          " WITH ADD COLUMN c" + std::to_string(j) +
                          " INT AS k0 + " + std::to_string(j) + " INTO tab;"),
              "evolve");
      prev = next;
    }
    lineages.push_back({base, prev});
  }
  return lineages;
}

inverda::Row RandomRow(inverda::Random* rng) {
  return {inverda::Value::Int(rng->NextInt64(0, 999)),
          inverda::Value::String(rng->NextString(8))};
}

struct MixedResult {
  double ms = 0;
  long long hits = 0;
  long long misses = 0;
  long long invalidations = 0;

  double hit_rate() const {
    long long total = hits + misses;
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(hits) /
                            static_cast<double>(total);
  }
};

// The mixed workload: 90% scans of a random lineage's head version, 10%
// inserts into lineage 0's base. Starts cold, warms every head once, then
// measures steady state.
MixedResult RunMixed(inverda::Inverda* db,
                     const std::vector<Lineage>& lineages, int ops,
                     uint64_t seed) {
  inverda::Random rng(seed);
  inverda::AccessLayer& access = db->access();
  access.InvalidateCache();
  for (const Lineage& l : lineages) {
    CheckOk(db->Select(l.head, kTable), "warm");
  }
  db->ResetMetrics();
  MixedResult result;
  result.ms = TimeMs(1, [&] {
    for (int i = 0; i < ops; ++i) {
      if (rng.NextUint64(10) == 0) {
        CheckOk(db->Insert(lineages[0].base, kTable, RandomRow(&rng)),
                "write");
      } else {
        const Lineage& l = lineages[rng.NextUint64(lineages.size())];
        CheckOk(db->Select(l.head, kTable), "read");
      }
    }
  });
  result.hits = db->Metrics().value("view_cache.hits");
  result.misses = db->Metrics().value("view_cache.misses");
  result.invalidations = db->Metrics().value("view_cache.invalidations");
  return result;
}

// One MATERIALIZE of lineage 1's head with every head cached: reports how
// many cached views the migration evicts.
long long MigrationEvictions(inverda::Inverda* db,
                             const std::vector<Lineage>& lineages,
                             const std::string& target) {
  inverda::AccessLayer& access = db->access();
  access.InvalidateCache();
  for (const Lineage& l : lineages) {
    CheckOk(db->Select(l.head, kTable), "warm");
  }
  db->ResetMetrics();
  CheckOk(db->Materialize(MaterializeRequest::Targets({target})), "materialize");
  return db->Metrics().value("view_cache.invalidations");
}

}  // namespace

int main(int argc, char** argv) {
  InitBench(argc, argv);
  int lineage_count = ScaledInt("INVERDA_CACHE_LINEAGES", 10);
  int depth = ScaledInt("INVERDA_CACHE_DEPTH", 3);
  int rows = ScaledInt("INVERDA_CACHE_ROWS", 300);
  int ops = ScaledInt("INVERDA_CACHE_OPS", 600);
  if (lineage_count < 4) lineage_count = 4;  // the contrast needs spread
  if (depth < 1) depth = 1;

  inverda::bench::PrintHeader(
      "Ablation: derived-view cache with genealogy-scoped invalidation");
  std::printf(
      "%d lineages x depth %d, %d rows each; %d mixed ops "
      "(90%% head scans, 10%% writes into lineage 0)\n\n",
      lineage_count, depth, rows, ops);

  inverda::Inverda db;
  std::vector<Lineage> lineages = BuildGenealogy(&db, lineage_count, depth);
  inverda::Random rng(7);
  for (const Lineage& l : lineages) {
    for (int r = 0; r < rows; ++r) {
      CheckOk(db.Insert(l.base, kTable, RandomRow(&rng)), "populate");
    }
  }

  // Uncached baseline for scale.
  double no_cache_ms = TimeMs(1, [&] {
    inverda::Random r(11);
    for (int i = 0; i < ops; ++i) {
      const Lineage& l = lineages[r.NextUint64(lineages.size())];
      CheckOk(db.Select(l.head, kTable), "read");
    }
  });
  db.access().set_cache_enabled(true);
  MixedResult cached_run = RunMixed(&db, lineages, ops, 13);

  std::printf("no cache (reads only):  %8.2f ms\n", no_cache_ms);
  std::printf(
      "genealogy:   %8.2f ms   hit rate %5.1f%%   (%lld hits / %lld misses "
      "/ %lld evictions)\n",
      cached_run.ms, cached_run.hit_rate(), cached_run.hits,
      cached_run.misses, cached_run.invalidations);

  // Migration: flipping one lineage's SMOs must evict exactly that
  // lineage's cached head and leave the others warm.
  long long evicted = MigrationEvictions(&db, lineages, lineages[1].head);
  CheckOk(db.Materialize(MaterializeRequest::Targets({lineages[1].base})),
          "restore");
  std::printf("\nMATERIALIZE %s with %d cached heads evicts %lld\n",
              lineages[1].head.c_str(), lineage_count, evicted);

  // Correctness spot check: cached and uncached views agree after writes.
  CheckOk(db.Insert(lineages[0].base, kTable, RandomRow(&rng)),
          "post write");
  size_t cached = CheckOk(db.Select(lineages[0].head, kTable), "read").size();
  db.access().set_cache_enabled(false);
  size_t uncached =
      CheckOk(db.Select(lineages[0].head, kTable), "read").size();
  bool consistent = cached == uncached;
  bool scoped = evicted == 1;
  std::printf("consistency check (cached == uncached view): %s\n",
              consistent ? "PASS" : "FAIL");
  std::printf("scoped migration eviction (exactly 1 head): %s\n",
              scoped ? "PASS" : "FAIL");
  return consistent && scoped ? 0 : 1;
}
