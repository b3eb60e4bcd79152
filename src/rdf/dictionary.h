#ifndef SPARQLOG_RDF_DICTIONARY_H_
#define SPARQLOG_RDF_DICTIONARY_H_

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "rdf/triple.h"

namespace sparqlog::rdf {

/// Bidirectional string <-> TermId dictionary.
///
/// The store and generators keep terms dictionary-encoded (the standard
/// RDF-store design, cf. RDF-3X); strings are interned once.
class Dictionary {
 public:
  Dictionary() = default;

  /// Returns the id for `s`, interning it if new. Id 0 is never returned
  /// (reserved as "invalid").
  TermId Intern(std::string_view s);

  /// Returns the id for `s` or 0 if not present.
  TermId Lookup(std::string_view s) const;

  /// Returns the string for `id`. `id` must have been returned by Intern.
  const std::string& Resolve(TermId id) const;

  size_t size() const { return strings_.size() - 1; }

 private:
  // A deque never moves its elements on growth, so the index keys (views
  // into the stored strings, short ones included) stay valid.
  std::deque<std::string> strings_ = {""};  // index 0 reserved
  std::unordered_map<std::string_view, TermId> index_;
};

}  // namespace sparqlog::rdf

#endif  // SPARQLOG_RDF_DICTIONARY_H_
