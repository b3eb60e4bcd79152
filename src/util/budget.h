#ifndef SPARQLOG_UTIL_BUDGET_H_
#define SPARQLOG_UTIL_BUDGET_H_

#include <cstdint>

namespace sparqlog::util {

/// Cooperative step-count budget for the exponential analysis kernels
/// (det-k-decomp, treewidth elimination search, girth BFS, blocked
/// Myers) and the query engines (store/engine.h). A budget counts
/// abstract work units, not wall-clock time, so the abandon/complete
/// decision for a given input is bit-reproducible across machines,
/// thread counts, and runs — the property the StatisticsDigest
/// equivalence checks rely on.
///
/// A default-constructed budget (or one built with limit 0) is
/// unlimited: Charge() always succeeds and exhausted() stays false.
/// Kernels take a `StepBudget*` defaulted to nullptr so existing
/// callers keep their exact behaviour.
class StepBudget {
 public:
  StepBudget() = default;
  explicit StepBudget(uint64_t limit) : remaining_(limit), limited_(limit > 0) {}

  /// Deducts `steps` units. Returns false — permanently — once the
  /// budget is exhausted; callers should unwind and report abandonment.
  bool Charge(uint64_t steps = 1) {
    if (!limited_) return true;
    if (exhausted_ || steps > remaining_) {
      exhausted_ = true;
      remaining_ = 0;
      return false;
    }
    remaining_ -= steps;
    return true;
  }

  bool exhausted() const { return exhausted_; }
  bool limited() const { return limited_; }
  uint64_t remaining() const { return remaining_; }

 private:
  uint64_t remaining_ = 0;
  bool limited_ = false;
  bool exhausted_ = false;
};

}  // namespace sparqlog::util

#endif  // SPARQLOG_UTIL_BUDGET_H_
