#include "analysis/operator_set.h"

namespace sparqlog::analysis {

void OperatorSetDistribution::Add(const QueryFeatures& f) {
  if (f.form != sparql::QueryForm::kSelect &&
      f.form != sparql::QueryForm::kAsk) {
    return;
  }
  ++total;
  if (f.opset_other) {
    ++other;
    return;
  }
  ++exact[f.opset & 31];
}

uint64_t OperatorSetDistribution::CpfSubtotal() const {
  uint64_t cpf = 0;
  for (uint8_t mask : {uint8_t{0}, QueryFeatures::kOpF, QueryFeatures::kOpA,
                       static_cast<uint8_t>(QueryFeatures::kOpA |
                                            QueryFeatures::kOpF)}) {
    cpf += exact[mask];
  }
  return cpf;
}

uint64_t OperatorSetDistribution::CpfPlus(uint8_t extra) const {
  uint64_t sum = 0;
  for (uint8_t base : {uint8_t{0}, QueryFeatures::kOpF, QueryFeatures::kOpA,
                       static_cast<uint8_t>(QueryFeatures::kOpA |
                                            QueryFeatures::kOpF)}) {
    sum += exact[(base | extra) & 31];
  }
  return sum;
}

uint64_t OperatorSetDistribution::OtherCombinations() const {
  // Everything classified in `exact` that is not one of the paper's rows:
  // CPF sets, CPF+O, CPF+G, CPF+U, and {A, O, U, F}.
  uint64_t shown = CpfSubtotal() + CpfPlus(QueryFeatures::kOpO) +
                   CpfPlus(QueryFeatures::kOpG) +
                   CpfPlus(QueryFeatures::kOpU) +
                   exact[QueryFeatures::kOpA | QueryFeatures::kOpO |
                         QueryFeatures::kOpU | QueryFeatures::kOpF];
  uint64_t classified = 0;
  for (uint64_t c : exact) classified += c;
  return classified - shown;
}

std::string OperatorSetName(uint8_t mask) {
  if (mask == 0) return "none";
  std::string out;
  auto add = [&out](const char* name) {
    if (!out.empty()) out += ", ";
    out += name;
  };
  if (mask & QueryFeatures::kOpA) add("A");
  if (mask & QueryFeatures::kOpO) add("O");
  if (mask & QueryFeatures::kOpG) add("G");
  if (mask & QueryFeatures::kOpU) add("U");
  if (mask & QueryFeatures::kOpF) add("F");
  return out;
}

}  // namespace sparqlog::analysis
