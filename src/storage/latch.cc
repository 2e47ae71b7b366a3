#include "storage/latch.h"

#include <algorithm>

namespace inverda {

std::shared_mutex& LatchRegistry::Latch(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<std::shared_mutex>& slot = latches_[name];
  if (slot == nullptr) slot = std::make_unique<std::shared_mutex>();
  return *slot;
}

void TableLatchSet::Push(std::shared_mutex* latch, bool exclusive) {
  if (exclusive) {
    latch->lock();
  } else {
    latch->lock_shared();
  }
  held_.emplace_back(latch, exclusive);
}

void TableLatchSet::Acquire(LatchRegistry* registry,
                            std::vector<std::string> names, bool exclusive) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  if (names.size() > kEscalationLimit) {
    escalated_ = true;
    AcquireGlobal(registry);
    return;
  }
  // Global first (it orders before every table latch), shared: a coarse
  // holder has it exclusive, so the granularities exclude each other.
  Push(&registry->global(), false);
  for (const std::string& name : names) {
    Push(&registry->Latch(name), exclusive);
  }
}

void TableLatchSet::AcquireGlobal(LatchRegistry* registry) {
  Push(&registry->global(), true);
}

void TableLatchSet::Release() {
  for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
    if (it->second) {
      it->first->unlock();
    } else {
      it->first->unlock_shared();
    }
  }
  held_.clear();
}

}  // namespace inverda
