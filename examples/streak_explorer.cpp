// Streak explorer: generates a single-day log with planted refinement
// sessions (users iterating on a seed query) and runs the Section 8
// streak analysis for several window sizes, showing how the window
// affects streak lengths — the paper's closing observation.
//
// Usage: streak_explorer [num_queries]

#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>

#include "corpus/generator.h"
#include "corpus/profile.h"
#include "streaks/streaks.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sparqlog;

  std::optional<uint64_t> num_queries =
      argc > 1 ? util::ParseCount(argv[1], std::numeric_limits<size_t>::max())
               : 5000;
  if (!num_queries || argc > 2) {
    std::cerr << "usage: streak_explorer [num_queries]\n";
    return 2;
  }
  auto profiles = corpus::PaperProfiles();
  const corpus::DatasetProfile& profile =
      corpus::ProfileByName(profiles, "DBpedia16");
  auto log = corpus::GenerateStreakLog(profile, *num_queries, 0.3, 4242);
  std::cout << "Generated day-log with " << log.size()
            << " queries (30% refinement sessions)\n\n";

  util::Table table({"Window", "Streaks", "Longest", "1-10", "11-20",
                     "21-30", ">30"});
  for (size_t window : {10, 30, 100}) {
    streaks::StreakOptions options;
    options.window = window;
    streaks::StreakDetector detector(options);
    for (const std::string& q : log) detector.Add(q);
    streaks::StreakReport r = detector.Finish();
    uint64_t over30 = 0;
    for (int b = 3; b < 11; ++b) over30 += r.counts[b];
    table.AddRow({std::to_string(window),
                  util::WithThousands(
                      static_cast<long long>(r.total_streaks)),
                  std::to_string(r.longest),
                  util::WithThousands(static_cast<long long>(r.counts[0])),
                  util::WithThousands(static_cast<long long>(r.counts[1])),
                  util::WithThousands(static_cast<long long>(r.counts[2])),
                  util::WithThousands(static_cast<long long>(over30))});
  }
  table.Print(std::cout);
  std::cout << "\nAs in the paper: increasing the window size yields "
               "longer streaks (Section 8).\n";
  return 0;
}
