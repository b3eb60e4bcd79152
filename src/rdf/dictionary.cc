#include "rdf/dictionary.h"

#include "util/vbyte.h"

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

void Dictionary::EncodeTo(std::string& out) const {
  util::vbyte::PutVarint(out, size());
  for (size_t id = 1; id < strings_.size(); ++id) {
    util::vbyte::PutLenPrefixed(out, strings_[id]);
  }
}

bool Dictionary::DecodeFrom(std::string_view& in) {
  strings_.resize(1);
  index_.clear();
  uint64_t count;
  // Every term costs at least one framing byte, so counts beyond the
  // remaining payload are corrupt (and this bounds the reserve).
  if (!util::vbyte::GetVarint(in, count) || count > in.size()) return false;
  index_.reserve(static_cast<size_t>(count));
  for (uint64_t i = 1; i <= count; ++i) {
    std::string_view term;
    if (!util::vbyte::GetLenPrefixed(in, term, 1ULL << 20)) return false;
    if (Intern(term) != i) return false;  // duplicate term: corrupt
  }
  return true;
}

}  // namespace sparqlog::rdf
