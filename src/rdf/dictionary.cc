#include "rdf/dictionary.h"

#include <cassert>

namespace sparqlog::rdf {

TermId Dictionary::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  strings_.emplace_back(s);
  TermId id = static_cast<TermId>(strings_.size() - 1);
  index_.emplace(strings_.back(), id);
  return id;
}

TermId Dictionary::Lookup(std::string_view s) const {
  auto it = index_.find(s);
  return it == index_.end() ? 0 : it->second;
}

const std::string& Dictionary::Resolve(TermId id) const {
  assert(id > 0 && id < strings_.size());
  return strings_[id];
}

}  // namespace sparqlog::rdf
