#include "plan/plan.h"

#include <mutex>
#include <utility>

#include "plan/compiler.h"
#include "plan/fused.h"

namespace inverda {
namespace plan {

Result<std::optional<Row>> PlanStep::Derive(int64_t key) const {
  if (is_fused()) return FusedDerive(*this, key);
  return kernel->Derive(ctx, side, index, key);
}

Status PlanStep::DeriveBatch(RowBatch* out) const {
  if (is_fused()) return FusedDeriveBatch(*this, out);
  return kernel->DeriveReadBatch(ctx, side, index, out);
}

Status PlanStep::Propagate(const WriteSet& writes) const {
  if (is_fused()) return FusedPropagate(*this, writes);
  return kernel->Propagate(ctx, side, index, writes);
}

Result<const TvPlan*> PlanCache::Get(TvId tv, uint64_t epoch,
                                     const PlanCompiler& compiler) {
  // Hot path: the epoch matches and the plan is cached — one atomic load,
  // a reader latch, and a map lookup. Readers never block each other here.
  if (epoch_.load(std::memory_order_acquire) == epoch) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = plans_.find(tv);
    if (it != plans_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return &it->second;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (epoch_.load(std::memory_order_relaxed) != epoch) {
    // The materialization epoch moved (evolution, migration, or drop):
    // every cached plan may route differently now.
    invalidations_.fetch_add(static_cast<int64_t>(plans_.size()),
                             std::memory_order_relaxed);
    plans_.clear();
    epoch_.store(epoch, std::memory_order_release);
  }
  auto it = plans_.find(tv);
  if (it != plans_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return &it->second;
  }
  const int64_t walks_before = compiler.route_walks();
  const int64_t builds_before = compiler.context_builds();
  INVERDA_ASSIGN_OR_RETURN(TvPlan compiled, compiler.Compile(tv));
  compiles_.fetch_add(1, std::memory_order_relaxed);
  route_walks_.fetch_add(compiler.route_walks() - walks_before,
                         std::memory_order_relaxed);
  context_builds_.fetch_add(compiler.context_builds() - builds_before,
                            std::memory_order_relaxed);
  auto pos = plans_.emplace(tv, std::move(compiled)).first;
  return &pos->second;
}

void PlanCache::Clear() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  invalidations_.fetch_add(static_cast<int64_t>(plans_.size()),
                           std::memory_order_relaxed);
  plans_.clear();
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.compiles = compiles_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  out.route_walks = route_walks_.load(std::memory_order_relaxed);
  out.context_builds = context_builds_.load(std::memory_order_relaxed);
  return out;
}

void PlanCache::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  compiles_.store(0, std::memory_order_relaxed);
  invalidations_.store(0, std::memory_order_relaxed);
  route_walks_.store(0, std::memory_order_relaxed);
  context_builds_.store(0, std::memory_order_relaxed);
}

}  // namespace plan
}  // namespace inverda
