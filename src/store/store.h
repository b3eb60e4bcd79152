#ifndef SPARQLOG_STORE_STORE_H_
#define SPARQLOG_STORE_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace sparqlog::store {

using rdf::EncodedTriple;
using rdf::TermId;

/// An in-memory, dictionary-encoded RDF triple store with the three
/// access paths SPO, POS and PSO (sorted vectors). This is the
/// shared substrate under both query engines of the Section 5.1
/// experiment (one store, two execution strategies).
class TripleStore {
 public:
  TripleStore() = default;

  /// Adds a triple by term strings (interned into the dictionary).
  void Add(const std::string& s, const std::string& p, const std::string& o);
  /// Adds an already-encoded triple.
  void Add(EncodedTriple t);

  /// Sorts the indexes; must be called after the last Add and before the
  /// first lookup. Idempotent. Removes duplicates.
  void Build();

  size_t size() const { return spo_.size(); }
  rdf::Dictionary& dict() { return dict_; }
  const rdf::Dictionary& dict() const { return dict_; }

  /// Matches a triple pattern with 0 meaning "wildcard" in any position;
  /// appends results to `out`. Uses the best index for the bound set.
  void Match(TermId s, TermId p, TermId o,
             std::vector<EncodedTriple>& out) const;

  /// Number of triples with predicate `p` (relation cardinality for the
  /// relational engine's statistics).
  size_t CountPredicate(TermId p) const;

  /// Number of distinct subjects / objects under predicate `p`
  /// (distinct-value statistics for join selectivity estimation).
  size_t DistinctSubjects(TermId p) const;
  size_t DistinctObjects(TermId p) const;

  /// All triples with predicate `p` as a contiguous span of the POS
  /// index (sorted by object, then subject).
  std::pair<const EncodedTriple*, const EncodedTriple*> PredicateSpan(
      TermId p) const;

 private:
  bool built_ = false;
  rdf::Dictionary dict_;
  std::vector<EncodedTriple> spo_;  // sorted (s, p, o)
  std::vector<EncodedTriple> pos_;  // sorted (p, o, s)
  std::vector<EncodedTriple> pso_;  // sorted (p, s, o)
  std::unordered_map<TermId, std::pair<size_t, size_t>> pred_stats_;
};

}  // namespace sparqlog::store

#endif  // SPARQLOG_STORE_STORE_H_
