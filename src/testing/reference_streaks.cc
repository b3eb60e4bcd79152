#include "testing/reference_streaks.h"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "util/levenshtein.h"
#include "util/strings.h"

namespace sparqlog::testing::reference {

std::string OldStripPrologue(const std::string& query) {
  static const char* kForms[] = {"SELECT", "ASK", "CONSTRUCT", "DESCRIBE"};
  size_t best = std::string::npos;
  for (const char* form : kForms) {
    size_t len = std::string(form).size();
    for (size_t i = 0; i + len <= query.size(); ++i) {
      if (util::EqualsIgnoreCase(std::string_view(query).substr(i, len),
                                 form)) {
        bool left_ok =
            i == 0 || !(std::isalnum(static_cast<unsigned char>(
                            query[i - 1])) ||
                        query[i - 1] == ':' || query[i - 1] == '/' ||
                        query[i - 1] == '#' || query[i - 1] == '_');
        bool right_ok =
            i + len == query.size() ||
            !std::isalnum(static_cast<unsigned char>(query[i + len]));
        if (left_ok && right_ok) {
          best = std::min(best, i);
          break;
        }
      }
    }
  }
  if (best == std::string::npos) return query;
  return query.substr(best);
}

void ReferenceDetector::Add(const std::string& raw_query) {
  Entry entry;
  entry.text = OldStripPrologue(raw_query);
  entry.index = next_index_++;
  ++report_.queries_processed;
  while (!window_.empty() &&
         next_index_ - window_.front().index > options_.window) {
    const Entry& old = window_.front();
    if (!old.extended) report_.AddStreakLength(old.streak_length);
    window_.pop_front();
  }
  bool matched_any = false;
  for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
    bool similar = util::SimilarByLevenshtein(it->text, entry.text,
                                              options_.similarity_threshold);
    if (!similar) continue;
    if (!it->has_later_similar) {
      if (!matched_any || it->streak_length + 1 > entry.streak_length) {
        entry.streak_length = it->streak_length + 1;
      }
      it->extended = true;
      matched_any = true;
    }
    it->has_later_similar = true;
  }
  window_.push_back(std::move(entry));
}

streaks::StreakReport ReferenceDetector::Finish() {
  for (const Entry& e : window_) {
    if (!e.extended) report_.AddStreakLength(e.streak_length);
  }
  window_.clear();
  streaks::StreakReport out = report_;
  report_ = streaks::StreakReport();
  next_index_ = 0;
  return out;
}

}  // namespace sparqlog::testing::reference
