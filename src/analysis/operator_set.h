#ifndef SPARQLOG_ANALYSIS_OPERATOR_SET_H_
#define SPARQLOG_ANALYSIS_OPERATOR_SET_H_

#include <cstdint>
#include <string>

#include "analysis/features.h"
#include "util/fields.h"

namespace sparqlog::analysis {

/// Aggregated operator-set distribution over O = {Filter, And, Opt,
/// Graph, Union} for Select/Ask queries — the data behind Table 3.
///
/// `exact[mask]` counts queries whose body uses exactly the operators in
/// `mask` (bit layout as in QueryFeatures) and nothing outside O.
struct OperatorSetDistribution {
  uint64_t exact[32] = {0};
  /// Queries using a feature outside O in their body (paper: 3.33%).
  uint64_t other = 0;
  /// Total Select/Ask queries classified.
  uint64_t total = 0;

  void Add(const QueryFeatures& f);

  /// Merge, snapshot and digest order (util/fields.h).
  static auto Fields(auto& s) {
    return util::fields::List(s.exact, s.other, s.total);
  }

  /// Count of queries whose operator set is exactly `mask`.
  uint64_t Exact(uint8_t mask) const { return exact[mask & 31]; }

  /// Count of CPF queries: operator set is a subset of {And, Filter}.
  uint64_t CpfSubtotal() const;

  /// Sum of all sets CPF ∪ {extra}: e.g. CPF+O = {O}, {O,F}, {A,O},
  /// {A,O,F} (the paper's "+8.56%" style rows).
  uint64_t CpfPlus(uint8_t extra) const;

  /// Queries using combinations from O not shown in the paper's rows.
  uint64_t OtherCombinations() const;
};

/// Renders a mask like "A, O, F" in the paper's notation ("none" for 0).
std::string OperatorSetName(uint8_t mask);

}  // namespace sparqlog::analysis

#endif  // SPARQLOG_ANALYSIS_OPERATOR_SET_H_
