#ifndef INVERDA_PLAN_EXPLAIN_H_
#define INVERDA_PLAN_EXPLAIN_H_

#include <string>

#include "obs/trace.h"
#include "plan/plan.h"

namespace inverda {
namespace plan {

/// Renders a compiled plan for humans: one line per step with the
/// Figure-6 case, the SMO's BiDEL text, the side/index/kernel executing
/// it, and the physical aux tables it binds, followed by the terminal
/// data table and the dependency footprint. `title` names the plan (for
/// the shell, "<version>.<table>"). Expects a full plan (see
/// PlanCompiler::Compile); used by EXPLAIN in the shell and by
/// bidel_lint --explain.
std::string ExplainPlan(const TvPlan& compiled, const std::string& title);

/// Renders a recorded trace (TRACE LAST in the shell) through the same
/// step formatter as ExplainPlan — a trace reads as the plan it executed,
/// with an "observed" line of measured timings and row counts appended to
/// every step. `title` names the operation (usually empty: the trace
/// carries the version label it ran against).
std::string RenderTrace(const obs::TraceSpan& root, const std::string& title);

}  // namespace plan
}  // namespace inverda

#endif  // INVERDA_PLAN_EXPLAIN_H_
