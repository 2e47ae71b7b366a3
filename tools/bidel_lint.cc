// bidel_lint — the standalone front-end for the src/analysis lint pass.
// Reads a BiDEL script (from file arguments or stdin), analyzes it against
// an optional pre-built catalog, and prints the findings:
//
//   bidel_lint script.bidel              # human-readable report
//   bidel_lint --json script.bidel       # machine-readable JSON
//   bidel_lint --setup base.bidel s.bidel  # lint s.bidel on top of base
//   bidel_lint < script.bidel            # read the script from stdin
//   bidel_lint --explain script.bidel    # apply, then print every compiled
//                                        # access plan (src/plan)
//   bidel_lint --metrics script.bidel    # apply, scan every version.table
//                                        # once, then print the unified
//                                        # metrics registry as JSON
//   bidel_lint --verify-plans s.bidel    # lint, apply, then statically
//                                        # verify every compiled plan
//                                        # (src/verify: round-trip, fusion,
//                                        # lock order)
//   bidel_lint --online-materialize <v> s.bidel
//                                        # apply, then run an online
//                                        # MATERIALIZE of <v> to completion
//                                        # and print the migration status
//                                        # line (docs/migration.md)
//   bidel_lint --advise script.bidel     # apply, then rank every valid
//                                        # materialization schema for a
//                                        # uniform workload over all
//                                        # versions (docs/advisor.md);
//                                        # composes with --json
//
// Exit status: 0 when the script is clean (warnings and notes allowed),
// 1 when the analyzer reports at least one error, 2 on usage or I/O
// problems. The --setup script is *applied* (via the full Evolve gate), so
// it must itself be valid; the linted scripts are only simulated — except
// under --explain, where they are applied so the plans exist.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "inverda/inverda.h"
#include "plan/explain.h"

namespace inverda {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bidel_lint [--json] [--setup <script>] [<script>...]\n"
               "  Lints BiDEL evolution scripts without applying them.\n"
               "  With no script arguments, reads the script from stdin.\n"
               "  --json            machine-readable output\n"
               "  --setup <script>  apply <script> first to build the base\n"
               "                    catalog the linted scripts evolve from\n"
               "  --explain         apply the scripts and print the compiled\n"
               "                    access plan of every version.table\n"
               "  --metrics         apply the scripts, scan every\n"
               "                    version.table once, and print the\n"
               "                    metrics registry snapshot as JSON\n"
               "  --verify-plans    lint the scripts, apply them, and run\n"
               "                    the static plan verifier over every\n"
               "                    compiled plan (docs/verifier.md)\n"
               "  --advise          apply the scripts and print the ranked\n"
               "                    materialization-advisor report for a\n"
               "                    uniform workload over every version\n"
               "                    (docs/advisor.md; composes with --json)\n"
               "  --online-materialize <target>\n"
               "                    apply the scripts, run an online\n"
               "                    MATERIALIZE of <target> (\"Version\" or\n"
               "                    \"Version.table\") to completion, and\n"
               "                    print the migration status line\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

std::string ReadStdin() {
  std::ostringstream buffer;
  buffer << std::cin.rdbuf();
  return buffer.str();
}

int RunLint(const std::vector<std::string>& scripts,
            const std::string& setup_path, bool json) {
  Inverda db;
  if (!setup_path.empty()) {
    std::string setup;
    if (!ReadFile(setup_path, &setup)) {
      std::fprintf(stderr, "bidel_lint: cannot read setup script %s\n",
                   setup_path.c_str());
      return 2;
    }
    Status status = db.Execute(setup);
    if (!status.ok()) {
      std::fprintf(stderr, "bidel_lint: setup script failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  bool any_errors = false;
  for (const std::string& script : scripts) {
    AnalysisReport report = AnalyzeScript(db.catalog(), script);
    if (json) {
      std::printf("%s\n", ReportToJson(report, script).c_str());
    } else {
      std::printf("%s", FormatReport(report, script).c_str());
    }
    any_errors = any_errors || report.has_errors();
  }
  return any_errors ? 1 : 0;
}

// --explain: the scripts are applied, not simulated, and then the compiled
// access plan of every visible version.table is rendered.
int RunExplain(const std::vector<std::string>& scripts,
               const std::string& setup_path) {
  Inverda db;
  std::vector<std::string> all = scripts;
  if (!setup_path.empty()) {
    std::string setup;
    if (!ReadFile(setup_path, &setup)) {
      std::fprintf(stderr, "bidel_lint: cannot read setup script %s\n",
                   setup_path.c_str());
      return 2;
    }
    all.insert(all.begin(), std::move(setup));
  }
  for (const std::string& script : all) {
    Status status = db.Execute(script);
    if (!status.ok()) {
      std::fprintf(stderr, "bidel_lint: script failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  for (const std::string& version : db.catalog().VersionNamesInOrder()) {
    Result<const SchemaVersionInfo*> info = db.catalog().FindVersion(version);
    if (!info.ok()) continue;
    for (const auto& [table, tv] : (*info)->tables) {
      Result<const plan::TvPlan*> compiled = db.access().GetPlan(tv);
      if (!compiled.ok()) {
        std::fprintf(stderr, "bidel_lint: no plan for %s.%s: %s\n",
                     version.c_str(), table.c_str(),
                     compiled.status().ToString().c_str());
        return 2;
      }
      std::printf("%s\n",
                  plan::ExplainPlan(**compiled, version + "." + table).c_str());
    }
  }
  return 0;
}

// --metrics: the scripts are applied, every visible version.table is
// scanned once (so the access/kernel histograms observe each route), and
// the unified registry is dumped as JSON — the machine-readable companion
// of the shell's METRICS JSON.
int RunMetrics(const std::vector<std::string>& scripts,
               const std::string& setup_path) {
  Inverda db;
  std::vector<std::string> all = scripts;
  if (!setup_path.empty()) {
    std::string setup;
    if (!ReadFile(setup_path, &setup)) {
      std::fprintf(stderr, "bidel_lint: cannot read setup script %s\n",
                   setup_path.c_str());
      return 2;
    }
    all.insert(all.begin(), std::move(setup));
  }
  for (const std::string& script : all) {
    Status status = db.Execute(script);
    if (!status.ok()) {
      std::fprintf(stderr, "bidel_lint: script failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  for (const std::string& version : db.catalog().VersionNamesInOrder()) {
    Result<const SchemaVersionInfo*> info = db.catalog().FindVersion(version);
    if (!info.ok()) continue;
    for (const auto& [table, tv] : (*info)->tables) {
      (void)tv;
      Result<std::vector<KeyedRow>> rows = db.Select(version, table);
      if (!rows.ok()) {
        std::fprintf(stderr, "bidel_lint: scan of %s.%s failed: %s\n",
                     version.c_str(), table.c_str(),
                     rows.status().ToString().c_str());
        return 2;
      }
    }
  }
  std::printf("%s\n", db.Metrics().Snapshot().ToJson().c_str());
  return 0;
}

// --verify-plans: lint first (so the bad-script corpus composes with this
// mode: an analyzer error still exits 1 without applying anything), then
// apply the scripts with the compiler's verify gate enabled and run the
// static verifier over every compiled plan in the genealogy.
int RunVerifyPlans(const std::vector<std::string>& scripts,
                   const std::string& setup_path, bool json) {
  Inverda db;
  if (!setup_path.empty()) {
    std::string setup;
    if (!ReadFile(setup_path, &setup)) {
      std::fprintf(stderr, "bidel_lint: cannot read setup script %s\n",
                   setup_path.c_str());
      return 2;
    }
    Status status = db.Execute(setup);
    if (!status.ok()) {
      std::fprintf(stderr, "bidel_lint: setup script failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  db.access().set_verify_enabled(true);
  for (const std::string& script : scripts) {
    AnalysisReport report = AnalyzeScript(db.catalog(), script);
    if (report.has_errors()) {
      if (json) {
        std::printf("%s\n", ReportToJson(report, script).c_str());
      } else {
        std::printf("%s", FormatReport(report, script).c_str());
      }
      return 1;
    }
    Status status = db.Execute(script);
    if (!status.ok()) {
      std::fprintf(stderr, "bidel_lint: script failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  Result<verify::VerifySummary> summary = db.VerifyPlans();
  if (!summary.ok()) {
    std::fprintf(stderr, "bidel_lint: verification failed to run: %s\n",
                 summary.status().ToString().c_str());
    return 2;
  }
  if (json) {
    std::printf("%s\n", verify::VerifySummaryToJson(*summary).c_str());
  } else {
    std::printf("%s", verify::FormatVerifySummary(*summary).c_str());
  }
  return summary->ok() ? 0 : 1;
}

// --online-materialize: the scripts are applied, then one online
// MATERIALIZE of the given target runs to completion — the command-line
// smoke surface of the migration coordinator. Prints the same status line
// as the shell's MIGRATIONS command.
int RunOnlineMaterialize(const std::vector<std::string>& scripts,
                         const std::string& setup_path,
                         const std::string& target) {
  Inverda db;
  std::vector<std::string> all = scripts;
  if (!setup_path.empty()) {
    std::string setup;
    if (!ReadFile(setup_path, &setup)) {
      std::fprintf(stderr, "bidel_lint: cannot read setup script %s\n",
                   setup_path.c_str());
      return 2;
    }
    all.insert(all.begin(), std::move(setup));
  }
  for (const std::string& script : all) {
    Status status = db.Execute(script);
    if (!status.ok()) {
      std::fprintf(stderr, "bidel_lint: script failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  Status status = db.Materialize(MaterializeRequest::Targets({target}, /*online=*/true, /*wait=*/false));
  if (status.ok()) status = db.WaitForMigration();
  std::printf("%s\n",
              migrate::FormatMigrationStatus(db.MigrationState()).c_str());
  if (!status.ok()) {
    std::fprintf(stderr, "bidel_lint: online materialize failed: %s\n",
                 status.ToString().c_str());
    return 2;
  }
  return 0;
}

// --advise: the scripts are applied, then the materialization advisor
// ranks every valid candidate schema. There is no live traffic to profile
// in a one-shot tool run, so the workload is declared instead: a uniform
// weight on every schema version (the neutral prior).
int RunAdvise(const std::vector<std::string>& scripts,
              const std::string& setup_path, bool json) {
  Inverda db;
  std::vector<std::string> all = scripts;
  if (!setup_path.empty()) {
    std::string setup;
    if (!ReadFile(setup_path, &setup)) {
      std::fprintf(stderr, "bidel_lint: cannot read setup script %s\n",
                   setup_path.c_str());
      return 2;
    }
    all.insert(all.begin(), std::move(setup));
  }
  for (const std::string& script : all) {
    Status status = db.Execute(script);
    if (!status.ok()) {
      std::fprintf(stderr, "bidel_lint: script failed: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }
  advisor::AdviseOptions options;
  for (const std::string& version : db.catalog().VersionNames()) {
    options.version_weights[version] = 1.0;
  }
  Result<advisor::AdviseReport> report = db.Advise(options);
  if (!report.ok()) {
    std::fprintf(stderr, "bidel_lint: advise failed: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  if (json) {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    std::printf("%s", report->ToText().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace inverda

int main(int argc, char** argv) {
  bool json = false;
  bool explain = false;
  bool metrics = false;
  bool verify_plans = false;
  bool advise = false;
  std::string online_target;
  std::string setup_path;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--verify-plans") {
      verify_plans = true;
    } else if (arg == "--advise") {
      advise = true;
    } else if (arg == "--online-materialize") {
      if (i + 1 >= argc) return inverda::Usage();
      online_target = argv[++i];
    } else if (arg == "--setup") {
      if (i + 1 >= argc) return inverda::Usage();
      setup_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      inverda::Usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return inverda::Usage();
    } else {
      paths.push_back(arg);
    }
  }

  std::vector<std::string> scripts;
  if (paths.empty()) {
    scripts.push_back(inverda::ReadStdin());
  } else {
    for (const std::string& path : paths) {
      std::string text;
      if (!inverda::ReadFile(path, &text)) {
        std::fprintf(stderr, "bidel_lint: cannot read %s\n", path.c_str());
        return 2;
      }
      scripts.push_back(std::move(text));
    }
  }
  if (!online_target.empty()) {
    return inverda::RunOnlineMaterialize(scripts, setup_path, online_target);
  }
  if (advise) return inverda::RunAdvise(scripts, setup_path, json);
  if (explain) return inverda::RunExplain(scripts, setup_path);
  if (metrics) return inverda::RunMetrics(scripts, setup_path);
  if (verify_plans) return inverda::RunVerifyPlans(scripts, setup_path, json);
  return inverda::RunLint(scripts, setup_path, json);
}
