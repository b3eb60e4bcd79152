#include "fragments/scratch.h"

#include <algorithm>

#include "util/fnv.h"

namespace sparqlog::fragments {

int VariableTable::Intern(std::string_view name) {
  if (slots_.empty()) slots_.resize(16);
  const uint64_t h = util::Fnv1aHash(name);
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(h) & mask;
  while (slots_[i].epoch == epoch_) {
    if (slots_[i].hash == h &&
        names_[static_cast<size_t>(slots_[i].id)] == name) {
      return slots_[i].id;
    }
    i = (i + 1) & mask;
  }
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  slots_[i] = Slot{h, epoch_, id};
  if ((names_.size() + 1) * 4 > slots_.size() * 3) Grow();
  return id;
}

void VariableTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.epoch != epoch_) continue;
    size_t i = static_cast<size_t>(s.hash) & mask;
    while (slots_[i].epoch == epoch_) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void VariableTable::Clear() {
  names_.clear();
  // Bumping the epoch invalidates every slot in O(1); on the (rare)
  // wraparound, really wipe the table so stale epochs cannot alias.
  if (++epoch_ == 0) {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    epoch_ = 1;
  }
}

}  // namespace sparqlog::fragments
