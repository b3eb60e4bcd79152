#include "store/store.h"

#include <algorithm>
#include <cassert>
#include <tuple>

namespace sparqlog::store {

namespace {

/// Orders triples by the fields F1, F2, F3 in turn.
template <TermId EncodedTriple::*F1, TermId EncodedTriple::*F2,
          TermId EncodedTriple::*F3>
struct Order {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    return std::tie(a.*F1, a.*F2, a.*F3) < std::tie(b.*F1, b.*F2, b.*F3);
  }
};

using Spo = Order<&EncodedTriple::s, &EncodedTriple::p, &EncodedTriple::o>;
using Pos = Order<&EncodedTriple::p, &EncodedTriple::o, &EncodedTriple::s>;
using Pso = Order<&EncodedTriple::p, &EncodedTriple::s, &EncodedTriple::o>;
using Osp = Order<&EncodedTriple::o, &EncodedTriple::s, &EncodedTriple::p>;

/// The triples of `index` (sorted by `Less`) between `lo` and `hi`.
template <class Less>
std::span<const EncodedTriple> Run(const std::vector<EncodedTriple>& index,
                                   const EncodedTriple& lo,
                                   const EncodedTriple& hi) {
  auto begin = std::lower_bound(index.begin(), index.end(), lo, Less());
  return {begin, std::upper_bound(begin, index.end(), hi, Less())};
}

/// Per predicate id, the number of distinct values of `field` in `index`,
/// which is sorted by predicate, then `field`: one per run boundary.
std::vector<size_t> DistinctPerPredicate(
    const std::vector<EncodedTriple>& index, TermId EncodedTriple::*field) {
  std::vector<size_t> counts;
  for (size_t i = 0; i < index.size(); ++i) {
    const EncodedTriple& t = index[i];
    if (i > 0 && index[i - 1].p == t.p && index[i - 1].*field == t.*field) {
      continue;
    }
    if (counts.size() <= t.p) counts.resize(t.p + 1, 0);
    ++counts[t.p];
  }
  return counts;
}

size_t CountAt(const std::vector<size_t>& counts, TermId p) {
  return p < counts.size() ? counts[p] : 0;
}

}  // namespace

void TripleStore::Add(const std::string& s, const std::string& p,
                      const std::string& o) {
  Add(EncodedTriple{dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

void TripleStore::Add(EncodedTriple t) {
  built_ = false;
  spo_.push_back(t);
}

void TripleStore::Build() {
  if (built_) return;
  std::sort(spo_.begin(), spo_.end(), Spo());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  pos_ = spo_;
  std::sort(pos_.begin(), pos_.end(), Pos());
  pso_ = spo_;
  std::sort(pso_.begin(), pso_.end(), Pso());
  osp_ = spo_;
  std::sort(osp_.begin(), osp_.end(), Osp());
  distinct_subjects_ = DistinctPerPredicate(pso_, &EncodedTriple::s);
  distinct_objects_ = DistinctPerPredicate(pos_, &EncodedTriple::o);
  built_ = true;
}

std::span<const EncodedTriple> TripleStore::Match(TermId s, TermId p,
                                                  TermId o) const {
  assert(built_ && "call Build() before Match()");
  // The unbound positions trail the bound ones in the chosen order, so
  // the run goes from them all at 0 to them all at the largest id.
  constexpr TermId kAny = ~TermId{0};
  const EncodedTriple lo{s, p, o};
  const EncodedTriple hi{s != 0 ? s : kAny, p != 0 ? p : kAny,
                         o != 0 ? o : kAny};
  if (p == 0 && o != 0) return Run<Osp>(osp_, lo, hi);
  if (s == 0 && p != 0) {
    return o != 0 ? Run<Pos>(pos_, lo, hi) : Run<Pso>(pso_, lo, hi);
  }
  return Run<Spo>(spo_, lo, hi);
}

size_t TripleStore::DistinctSubjects(TermId p) const {
  return CountAt(distinct_subjects_, p);
}

size_t TripleStore::DistinctObjects(TermId p) const {
  return CountAt(distinct_objects_, p);
}

}  // namespace sparqlog::store
