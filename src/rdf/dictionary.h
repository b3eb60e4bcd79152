#ifndef SPARQLOG_RDF_DICTIONARY_H_
#define SPARQLOG_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "rdf/triple.h"

namespace sparqlog::rdf {

/// The one string <-> TermId dictionary: the triple store and the gMark
/// generators keep terms dictionary-encoded (the standard RDF-store
/// design, cf. RDF-3X), and snapshots store every string once in a
/// dictionary section that the per-shard sections refer to by varint
/// id (today the per-dataset table keys).
///
/// Id 0 is reserved and never assigned: TripleStore::Match takes 0 as
/// its wildcard and the join engine uses 0 for "unbound". Ids are
/// dense, 1-based and assigned in first-Intern order, so interning the
/// same terms in the same order yields the same ids — which keeps
/// checkpoint bytes deterministic (shards serialize in index order,
/// their maps in key order).
class Dictionary {
 public:
  /// Returns the id for `s`, interning it if new.
  TermId Intern(std::string_view s);

  /// Returns the id for `s` or 0 if not present.
  TermId Lookup(std::string_view s) const;

  /// Id -> term, or nullptr for 0 or an id never assigned (a corrupt or
  /// mismatched snapshot reference; callers treat it as a load failure).
  /// Takes a full snapshot word, so an id wider than TermId is unknown
  /// rather than truncated onto a real term.
  const std::string* term(uint64_t id) const {
    return id != 0 && id < strings_.size() ? &strings_[id] : nullptr;
  }

  size_t size() const { return strings_.size() - 1; }

  /// Appends the dictionary as a snapshot section payload: varint
  /// count, then length-prefixed terms in id order.
  void EncodeTo(std::string& out) const;

  /// Replaces the contents with a decoded payload (ids 1..n in payload
  /// order); false on truncation, malformed framing, a term over 1 MiB
  /// or a repeated term (contents are then unspecified).
  bool DecodeFrom(std::string_view& in);

 private:
  // A deque never moves its elements on growth, so the index keys (views
  // into the stored strings, short ones included) stay valid.
  std::deque<std::string> strings_ = {""};  // index 0 reserved
  std::unordered_map<std::string_view, TermId> index_;
};

}  // namespace sparqlog::rdf

#endif  // SPARQLOG_RDF_DICTIONARY_H_
