#ifndef INVERDA_STORAGE_SEQUENCE_H_
#define INVERDA_STORAGE_SEQUENCE_H_

#include <atomic>
#include <cstdint>

namespace inverda {

/// A monotonically increasing id generator. One global sequence provides the
/// InVerDa-managed identifiers `p`; identifier-generating SMOs (DECOMPOSE ON
/// FK/condition, JOIN ON condition) draw their fresh ids from the same
/// sequence so identifiers are unique across every table version.
///
/// Draws are atomic so concurrent clients never receive the same id; the
/// counter is the only coordination two writers in disjoint genealogy
/// components share. Ids are dense: every draw returns the previous one
/// plus one.
class Sequence {
 public:
  explicit Sequence(int64_t start = 1) : next_(start) {}

  // Value semantics over the atomic counter (Database moves copy it).
  Sequence(const Sequence& other) : next_(other.Peek()) {}
  Sequence& operator=(const Sequence& other) {
    next_.store(other.Peek(), std::memory_order_relaxed);
    return *this;
  }

  /// Returns the next id and advances.
  int64_t Next() { return next_.fetch_add(1, std::memory_order_relaxed); }

  /// The id the next call to Next() returns; every id handed out so far is
  /// below it.
  int64_t Peek() const { return next_.load(std::memory_order_relaxed); }

  /// Ensures the sequence never hands out ids <= `floor` again.
  void BumpPast(int64_t floor) {
    int64_t current = next_.load(std::memory_order_relaxed);
    while (floor >= current &&
           !next_.compare_exchange_weak(current, floor + 1,
                                        std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<int64_t> next_;
};

}  // namespace inverda

#endif  // INVERDA_STORAGE_SEQUENCE_H_
