#include "catalog/catalog.h"

namespace inverda {

// The genealogy is a DAG of table versions connected by SMO hyperedges, so
// the closures below are plain BFS over the hyperedges. The index is small
// (one set pair per SMO instance, one component per independent lineage)
// and rebuilt wholesale whenever the structure epoch moves — evolutions and
// drops are rare next to reads and writes.

void VersionCatalog::EnsureReachability() const {
  const uint64_t structure = structure_epoch();
  if (reach_epoch_.load(std::memory_order_acquire) == structure) return;
  // First access after a structural change: rebuild under the mutex so
  // concurrent readers either build it themselves (double-checked) or wait
  // and then use the finished index.
  std::lock_guard<std::mutex> lock(reach_mu_);
  if (reach_epoch_.load(std::memory_order_relaxed) == structure) return;
  reach_.clear();
  components_.clear();
  component_of_.clear();

  for (const auto& [id, inst] : smos_) {
    SmoReach reach;
    // Upstream: the sources and, transitively, the sources of each table
    // version's incoming SMO instance.
    std::vector<TvId> frontier = inst.sources;
    while (!frontier.empty()) {
      TvId tv = frontier.back();
      frontier.pop_back();
      if (!reach.upstream.insert(tv).second) continue;
      const SmoInstance& in = smos_.at(tvs_.at(tv).incoming);
      frontier.insert(frontier.end(), in.sources.begin(), in.sources.end());
    }
    // Downstream: the targets and, transitively, the targets of every
    // outgoing SMO instance.
    frontier = inst.targets;
    while (!frontier.empty()) {
      TvId tv = frontier.back();
      frontier.pop_back();
      if (!reach.downstream.insert(tv).second) continue;
      for (SmoId out : tvs_.at(tv).outgoing) {
        const SmoInstance& o = smos_.at(out);
        frontier.insert(frontier.end(), o.targets.begin(), o.targets.end());
      }
    }
    reach_.emplace(id, std::move(reach));
  }

  // Undirected connected components: data can flow in either direction
  // depending on the materialization, so two table versions can share
  // physical state iff they are in the same component.
  for (const auto& [start, start_tv] : tvs_) {
    (void)start_tv;
    if (component_of_.count(start)) continue;
    std::set<TvId> component;
    std::vector<TvId> frontier{start};
    while (!frontier.empty()) {
      TvId tv = frontier.back();
      frontier.pop_back();
      if (!component.insert(tv).second) continue;
      auto follow = [&](const SmoInstance& inst) {
        frontier.insert(frontier.end(), inst.sources.begin(),
                        inst.sources.end());
        frontier.insert(frontier.end(), inst.targets.begin(),
                        inst.targets.end());
      };
      follow(smos_.at(tvs_.at(tv).incoming));
      for (SmoId out : tvs_.at(tv).outgoing) follow(smos_.at(out));
    }
    size_t index = components_.size();
    for (TvId tv : component) component_of_[tv] = index;
    components_.push_back(std::move(component));
  }
  reach_epoch_.store(structure, std::memory_order_release);
}

const SmoReach& VersionCatalog::Reach(SmoId id) const {
  EnsureReachability();
  return reach_.at(id);
}

const std::set<TvId>& VersionCatalog::ComponentOf(TvId id) const {
  EnsureReachability();
  return components_[component_of_.at(id)];
}

}  // namespace inverda
