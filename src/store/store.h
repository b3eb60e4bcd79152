#ifndef SPARQLOG_STORE_STORE_H_
#define SPARQLOG_STORE_STORE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace sparqlog::store {

using rdf::EncodedTriple;
using rdf::TermId;

/// An in-memory, dictionary-encoded RDF triple store with the four
/// access paths SPO, POS, PSO and OSP (sorted vectors): every bound/unbound
/// combination of a lookup is a prefix of one of them, so each lookup is
/// one contiguous run. This is the shared substrate under both query
/// engines of the Section 5.1 experiment (one store, two execution
/// strategies).
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

  /// The triples matching a pattern with 0 meaning "wildcard" in any
  /// position: the exact run of the index whose order starts with the
  /// bound positions (o bound without p: OSP; p bound without s: POS or
  /// PSO; otherwise SPO). Valid until the next Add or Build.
  std::span<const EncodedTriple> Match(TermId s, TermId p, TermId o) const;

  /// Number of triples with predicate `p` (relation cardinality for the
  /// relational engine's statistics).
  size_t CountPredicate(TermId p) const { return Match(0, p, 0).size(); }

  /// Number of distinct subjects / objects under predicate `p`
  /// (distinct-value statistics for join selectivity estimation).
  size_t DistinctSubjects(TermId p) const;
  size_t DistinctObjects(TermId p) const;

 private:
  bool built_ = false;
  rdf::Dictionary dict_;
  std::vector<EncodedTriple> spo_;  // sorted (s, p, o)
  std::vector<EncodedTriple> pos_;  // sorted (p, o, s)
  std::vector<EncodedTriple> pso_;  // sorted (p, s, o)
  std::vector<EncodedTriple> osp_;  // sorted (o, s, p)
  // Indexed by predicate id; 0 past the last predicate.
  std::vector<size_t> distinct_subjects_;
  std::vector<size_t> distinct_objects_;
};

}  // namespace sparqlog::store

#endif  // SPARQLOG_STORE_STORE_H_
