#ifndef INVERDA_STORAGE_SEQUENCE_H_
#define INVERDA_STORAGE_SEQUENCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace inverda {

/// A monotonically increasing id generator. One global sequence provides the
/// InVerDa-managed identifiers `p`; identifier-generating SMOs (DECOMPOSE ON
/// FK/condition, JOIN ON condition) draw their fresh ids from the same
/// sequence so identifiers are unique across every table version.
///
/// Draws are atomic so concurrent clients never receive the same id; the
/// counter is the only coordination two writers in disjoint genealogy
/// components share. For heavily concurrent workloads the sequence can
/// stripe allocation (EnableStriping): each stripe hands out ids from a
/// chunk it reserves from the global counter with one fetch_add per chunk,
/// so id draws stop being a single contended cache line. Striped draws are
/// still globally unique but may leave gaps (an invalidated chunk's
/// remainder is discarded) and are only per-stripe monotonic. A
/// single-threaded client draws densely from one stripe, so striping does
/// not perturb deterministic single-threaded runs until a BumpPast
/// intervenes. Striping is off by default — the dense global
/// counter, bit for bit the pre-sharding behavior.
class Sequence {
 public:
  explicit Sequence(int64_t start = 1) : next_(start) {}

  // Value semantics over the atomic counter (Database moves copy it).
  // Copies start unstriped at the source's high-water mark; assignment
  // keeps the destination's striping configuration and invalidates its
  // reserved chunks, so it never re-hands ids below the mark.
  Sequence(const Sequence& other) : next_(other.Peek()) {}
  Sequence& operator=(const Sequence& other) {
    next_.store(other.Peek(), std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    return *this;
  }

  /// Returns the next id and advances.
  int64_t Next() {
    if (stripes_.empty()) {
      return next_.fetch_add(1, std::memory_order_relaxed);
    }
    Stripe& stripe = StripeForThisThread();
    std::lock_guard<std::mutex> lock(stripe.mu);
    const uint64_t generation = generation_.load(std::memory_order_acquire);
    if (stripe.generation != generation || stripe.cur >= stripe.end) {
      const int64_t base =
          next_.fetch_add(chunk_, std::memory_order_relaxed);
      stripe.cur = base;
      stripe.end = base + chunk_;
      stripe.generation = generation;
    }
    return stripe.cur++;
  }

  /// The global high-water mark: every id handed out so far is below it,
  /// and (unstriped) it is exactly the id the next call to Next() returns.
  /// With striping it may overestimate by up to stripes * chunk reserved
  /// but undrawn ids — safe for callers that only need a floor no later
  /// draw dips under.
  int64_t Peek() const { return next_.load(std::memory_order_relaxed); }

  /// Ensures the sequence never hands out ids <= `floor` again. With
  /// striping this also invalidates every reserved chunk (their remainder
  /// is discarded). Not intended to race with concurrent Next() calls.
  void BumpPast(int64_t floor) {
    int64_t current = next_.load(std::memory_order_relaxed);
    while (floor >= current &&
           !next_.compare_exchange_weak(current, floor + 1,
                                        std::memory_order_relaxed)) {
    }
    if (!stripes_.empty()) {
      generation_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  /// Turns striped allocation on (stripes > 1 and chunk > 1) or off.
  /// Not thread-safe; configure before going concurrent.
  void EnableStriping(int stripes, int chunk) {
    stripes_.clear();
    if (stripes <= 1 || chunk <= 1) return;
    chunk_ = chunk;
    stripes_.reserve(static_cast<size_t>(stripes));
    for (int i = 0; i < stripes; ++i) {
      stripes_.push_back(std::make_unique<Stripe>());
    }
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }

  bool striped() const { return !stripes_.empty(); }

 private:
  struct Stripe {
    std::mutex mu;  // effectively thread-private; uncontended per draw
    int64_t cur = 0;
    int64_t end = 0;  // cur == end: nothing reserved
    uint64_t generation = 0;
  };

  Stripe& StripeForThisThread() {
    const size_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    return *stripes_[h % stripes_.size()];
  }

  std::atomic<int64_t> next_;
  std::atomic<uint64_t> generation_{0};
  int64_t chunk_ = 1;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace inverda

#endif  // INVERDA_STORAGE_SEQUENCE_H_
