#include "store/store.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace sparqlog::store {

namespace {

struct PosLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.o != b.o) return a.o < b.o;
    return a.s < b.s;
  }
};

struct PsoLess {
  bool operator()(const EncodedTriple& a, const EncodedTriple& b) const {
    if (a.p != b.p) return a.p < b.p;
    if (a.s != b.s) return a.s < b.s;
    return a.o < b.o;
  }
};

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
  std::sort(spo_.begin(), spo_.end());
  spo_.erase(std::unique(spo_.begin(), spo_.end()), spo_.end());
  pos_ = spo_;
  std::sort(pos_.begin(), pos_.end(), PosLess());
  pso_ = spo_;
  std::sort(pso_.begin(), pso_.end(), PsoLess());
  // Per-predicate distinct counts.
  pred_stats_.clear();
  size_t i = 0;
  while (i < pso_.size()) {
    TermId p = pso_[i].p;
    size_t j = i;
    std::set<TermId> subjects, objects;
    while (j < pso_.size() && pso_[j].p == p) {
      subjects.insert(pso_[j].s);
      objects.insert(pso_[j].o);
      ++j;
    }
    pred_stats_[p] = {subjects.size(), objects.size()};
    i = j;
  }
  built_ = true;
}

void TripleStore::Match(TermId s, TermId p, TermId o,
                        std::vector<EncodedTriple>& out) const {
  assert(built_ && "call Build() before Match()");
  auto emit_range = [&out](auto begin, auto end, auto pred) {
    for (auto it = begin; it != end; ++it) {
      if (pred(*it)) out.push_back(*it);
    }
  };
  if (s != 0) {
    // SPO index: lower_bound on (s, p|0, o|0).
    EncodedTriple lo{s, p, o};
    auto begin = std::lower_bound(spo_.begin(), spo_.end(), lo);
    auto end = std::upper_bound(
        spo_.begin(), spo_.end(),
        EncodedTriple{s, p == 0 ? ~TermId{0} : p, o == 0 ? ~TermId{0} : o});
    emit_range(begin, end, [&](const EncodedTriple& t) {
      return t.s == s && (p == 0 || t.p == p) && (o == 0 || t.o == o);
    });
    return;
  }
  if (p != 0 && o != 0) {
    // POS index: the (p, o) rows are one contiguous run.
    auto begin = std::lower_bound(pos_.begin(), pos_.end(),
                                  EncodedTriple{0, p, o}, PosLess());
    auto end = std::upper_bound(pos_.begin(), pos_.end(),
                                EncodedTriple{~TermId{0}, p, o}, PosLess());
    out.insert(out.end(), begin, end);
    return;
  }
  if (p != 0) {
    auto [begin, end] = PredicateSpan(p);
    for (auto* it = begin; it != end; ++it) out.push_back(*it);
    return;
  }
  if (o != 0) {
    emit_range(pos_.begin(), pos_.end(),
               [&](const EncodedTriple& t) { return t.o == o; });
    return;
  }
  out.insert(out.end(), spo_.begin(), spo_.end());
}

size_t TripleStore::CountPredicate(TermId p) const {
  auto [begin, end] = PredicateSpan(p);
  return static_cast<size_t>(end - begin);
}

size_t TripleStore::DistinctSubjects(TermId p) const {
  auto it = pred_stats_.find(p);
  return it == pred_stats_.end() ? 0 : it->second.first;
}

size_t TripleStore::DistinctObjects(TermId p) const {
  auto it = pred_stats_.find(p);
  return it == pred_stats_.end() ? 0 : it->second.second;
}

std::pair<const EncodedTriple*, const EncodedTriple*>
TripleStore::PredicateSpan(TermId p) const {
  assert(built_);
  EncodedTriple lo{0, p, 0};
  auto begin = std::lower_bound(pso_.begin(), pso_.end(), lo, PsoLess());
  EncodedTriple hi{~TermId{0}, p, ~TermId{0}};
  auto end = std::upper_bound(pso_.begin(), pso_.end(), hi, PsoLess());
  return {pso_.data() + (begin - pso_.begin()),
          pso_.data() + (end - pso_.begin())};
}

}  // namespace sparqlog::store
