#include "testing/shrink.h"

#include <cctype>
#include <memory>
#include <utility>

namespace sparqlog::testing {

using rdf::Term;
using sparql::Expr;
using sparql::ExprKind;
using sparql::PathExpr;
using sparql::PathKind;
using sparql::Pattern;
using sparql::PatternKind;
using sparql::Query;
using sparql::QueryForm;

namespace {

/// One deletion sweep at the given chunk size. Accepts greedily: after
/// a successful deletion the same offset is retried (the next chunk
/// slid into place).
bool DeletionPass(std::string& cur, size_t chunk, const FailPredicate& fails,
                  const ShrinkOptions& options, ShrinkOutcome& outcome) {
  bool changed = false;
  size_t pos = 0;
  while (pos < cur.size() && outcome.evals < options.max_evals) {
    std::string candidate = cur;
    candidate.erase(pos, chunk);
    ++outcome.evals;
    if (fails(candidate)) {
      cur = std::move(candidate);
      ++outcome.accepted;
      changed = true;
    } else {
      pos += chunk;
    }
  }
  return changed;
}

/// Replaces bytes with 'a' where the failure persists — normalizes
/// irrelevant content so the reproducer reads as signal, not noise.
bool SimplifyPass(std::string& cur, const FailPredicate& fails,
                  const ShrinkOptions& options, ShrinkOutcome& outcome) {
  bool changed = false;
  for (size_t i = 0; i < cur.size() && outcome.evals < options.max_evals;
       ++i) {
    if (cur[i] == 'a') continue;
    std::string candidate = cur;
    candidate[i] = 'a';
    ++outcome.evals;
    if (fails(candidate)) {
      cur = std::move(candidate);
      ++outcome.accepted;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

ShrinkOutcome ShrinkText(std::string_view failing, const FailPredicate& fails,
                         const ShrinkOptions& options) {
  ShrinkOutcome outcome;
  outcome.text = std::string(failing);
  bool changed = true;
  while (changed && outcome.evals < options.max_evals) {
    changed = false;
    for (size_t chunk = outcome.text.size() / 2; chunk >= 1; chunk /= 2) {
      if (DeletionPass(outcome.text, chunk, fails, options, outcome)) {
        changed = true;
      }
      if (chunk == 1) break;
    }
    if (SimplifyPass(outcome.text, fails, options, outcome)) changed = true;
  }
  return outcome;
}

namespace {

// --- Deep copies -----------------------------------------------------------
// Pattern/Expr hold shared_ptr members (subqueries, EXISTS bodies); their
// copy constructors deep-clone those payloads (see sparql/ast.h), so a
// plain copy is already a full snapshot with no shared state. These
// helpers keep the shrinker's snapshot call sites explicit about that.

Pattern DeepCopy(const Pattern& p) { return p; }
Expr DeepCopy(const Expr& e) { return e; }
Query DeepCopy(const Query& q) { return q; }

// --- The shrinker ----------------------------------------------------------

class AstShrinker {
 public:
  AstShrinker(const Query& failing, const QueryFailPredicate& fails,
              const ShrinkOptions& options)
      : q_(DeepCopy(failing)), fails_(fails), options_(options) {}

  AstShrinkOutcome Run() {
    bool changed = true;
    while (changed && Budget()) {
      changed = ShrinkTop();
      if (q_.has_body && ShrinkPattern(q_.where, /*group_slot=*/true)) {
        changed = true;
      }
      if (q_.trailing_values.has_value() &&
          ShrinkPattern(*q_.trailing_values)) {
        changed = true;
      }
    }
    AstShrinkOutcome outcome;
    outcome.query = std::move(q_);
    outcome.evals = evals_;
    outcome.accepted = accepted_;
    return outcome;
  }

 private:
  bool Budget() const { return evals_ < options_.max_evals; }

  bool Test() {
    ++evals_;
    if (fails_(q_)) {
      ++accepted_;
      return true;
    }
    return false;
  }

  /// Snapshots `slot`, applies `mutate`, keeps the change iff the whole
  /// query still fails. `slot` must live inside q_.
  template <typename T, typename Fn>
  bool Attempt(T& slot, Fn&& mutate) {
    if (!Budget()) return false;
    T saved = DeepCopy(slot);
    mutate(slot);
    if (Test()) return true;
    slot = std::move(saved);
    return false;
  }

  // DeepCopy dispatch for snapshot types without shared state.
  static Term DeepCopy(const Term& t) { return t; }
  static PathExpr DeepCopy(const PathExpr& p) { return p; }
  static sparql::TriplePattern DeepCopy(const sparql::TriplePattern& t) {
    return t;
  }
  static Pattern DeepCopy(const Pattern& p) {
    return sparqlog::testing::DeepCopy(p);
  }
  static Expr DeepCopy(const Expr& e) { return sparqlog::testing::DeepCopy(e); }
  static Query DeepCopy(const Query& q) {
    return sparqlog::testing::DeepCopy(q);
  }

  /// Byte-minimizes a string slot in place (delete a byte / replace
  /// with 'a'), testing the whole query each step. `min_len` guards
  /// slots that must stay non-empty (variable names, blank labels,
  /// language tags) so the reducer cannot fabricate an unrelated
  /// serializer-closure failure out of `?` or `_:`.
  bool MinimizeString(sparql::AstString& s, size_t min_len = 0) {
    bool changed = false;
    size_t i = 0;
    while (i < s.size() && Budget()) {
      char removed = s[i];
      if (s.size() <= min_len) {
        // No deletions left; replacement only.
        if (removed != 'a') {
          s[i] = 'a';
          if (Test()) {
            changed = true;
          } else {
            s[i] = removed;
          }
        }
        ++i;
        continue;
      }
      s.erase(i, 1);
      if (Test()) {
        changed = true;
        continue;
      }
      s.insert(i, 1, removed);
      if (removed != 'a') {
        s[i] = 'a';
        if (Test()) {
          changed = true;
          ++i;
          continue;
        }
        s[i] = removed;
      }
      ++i;
    }
    return changed;
  }

  bool ShrinkTerm(Term& t) {
    bool changed = false;
    if (!(t.is_variable() && t.value == "a")) {
      changed |= Attempt(t, [](Term& x) { x = Term::Var("a"); });
    }
    if (t.is_literal()) {
      if (!t.datatype.empty()) {
        changed |= Attempt(t, [](Term& x) { x.datatype.clear(); });
      }
      if (!t.lang.empty()) {
        changed |= Attempt(t, [](Term& x) { x.lang.clear(); });
      }
    }
    // Variables and blank labels must not shrink to nothing: `?` and
    // `_:` do not lex.
    size_t min_len = (t.is_variable() || t.is_blank()) ? 1 : 0;
    changed |= MinimizeString(t.value, min_len);
    if (!t.datatype.empty()) changed |= MinimizeString(t.datatype);
    if (!t.lang.empty()) changed |= MinimizeString(t.lang, 1);
    return changed;
  }

  bool ShrinkPath(PathExpr& p) {
    bool changed = false;
    if (!(p.kind == PathKind::kLink && p.iri == "a")) {
      changed |= Attempt(p, [](PathExpr& x) { x = PathExpr::Link("a"); });
    }
    if (p.kind == PathKind::kLink) {
      changed |= MinimizeString(p.iri);
      return changed;
    }
    // Hoist a child, delete surplus children, then recurse.
    for (size_t i = 0; i < p.children.size(); ++i) {
      if (Attempt(p, [i](PathExpr& x) {
            PathExpr child = x.children[i];
            x = std::move(child);
          })) {
        return true;
      }
    }
    size_t min_children =
        (p.kind == PathKind::kSeq || p.kind == PathKind::kAlt) ? 2 : 1;
    size_t i = 0;
    while (p.children.size() > min_children && i < p.children.size() &&
           Budget()) {
      PathExpr removed = p.children[i];
      p.children.erase(p.children.begin() + static_cast<long>(i));
      if (Test()) {
        changed = true;
        continue;
      }
      p.children.insert(p.children.begin() + static_cast<long>(i),
                        std::move(removed));
      ++i;
    }
    for (PathExpr& c : p.children) changed |= ShrinkPath(c);
    return changed;
  }

  size_t MinArgs(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kOr:
      case ExprKind::kAnd:
      case ExprKind::kCompare:
      case ExprKind::kArith:
        return 2;
      case ExprKind::kNot:
      case ExprKind::kUnaryMinus:
      case ExprKind::kUnaryPlus:
      case ExprKind::kIn:
      case ExprKind::kNotIn:
        return 1;
      case ExprKind::kAggregate:
        return e.star ? 0 : 1;
      default:
        return 0;
    }
  }

  bool ShrinkExpr(Expr& e) {
    if (e.is_variable() && e.term.value == "a") return false;
    if (Attempt(e, [](Expr& x) { x = Expr::MakeVar("a"); })) return true;
    bool changed = false;
    for (size_t i = 0; i < e.args.size(); ++i) {
      if (Attempt(e, [i](Expr& x) {
            Expr arg = sparqlog::testing::DeepCopy(x.args[i]);
            x = std::move(arg);
          })) {
        return true;
      }
    }
    size_t min_args = MinArgs(e);
    size_t i = 0;
    while (e.args.size() > min_args && i < e.args.size() && Budget()) {
      Expr removed = sparqlog::testing::DeepCopy(e.args[i]);
      e.args.erase(e.args.begin() + static_cast<long>(i));
      if (Test()) {
        changed = true;
        continue;
      }
      e.args.insert(e.args.begin() + static_cast<long>(i),
                    std::move(removed));
      ++i;
    }
    if (e.kind == ExprKind::kTerm) {
      changed |= ShrinkTerm(e.term);
    }
    if (e.kind == ExprKind::kFunction || e.kind == ExprKind::kAggregate) {
      changed |= MinimizeString(e.op);
      if (e.distinct) {
        changed |= Attempt(e, [](Expr& x) { x.distinct = false; });
      }
      if (!e.separator.empty()) {
        changed |= Attempt(e, [](Expr& x) { x.separator.clear(); });
        changed |= MinimizeString(e.separator);
      }
    }
    if ((e.kind == ExprKind::kExists || e.kind == ExprKind::kNotExists) &&
        e.pattern) {
      changed |= ShrinkPattern(*e.pattern, /*group_slot=*/true);
    }
    for (Expr& a : e.args) changed |= ShrinkExpr(a);
    return changed;
  }

  bool ShrinkTriple(sparql::TriplePattern& t) {
    bool changed = ShrinkTerm(t.subject);
    if (t.has_path()) {
      changed |= Attempt(t, [](sparql::TriplePattern& x) {
        x.clear_path();
        x.predicate = Term::Var("a");
      });
    }
    if (t.has_path()) {
      changed |= ShrinkPath(t.path());
    } else {
      changed |= ShrinkTerm(t.predicate);
    }
    changed |= ShrinkTerm(t.object);
    return changed;
  }

  /// Removes child `i` of `p`, or inserts `*insert` before it. The
  /// children sit in one exact-size array, so the array is rebuilt.
  static void SpliceChild(Pattern& p, size_t i, Pattern* insert) {
    std::vector<Pattern> kids;
    kids.reserve(p.children().size() + 1);
    for (Pattern& c : p.children()) kids.push_back(std::move(c));
    if (insert != nullptr) {
      kids.insert(kids.begin() + static_cast<long>(i), std::move(*insert));
    } else {
      kids.erase(kids.begin() + static_cast<long>(i));
    }
    p.SetChildren(kids);
  }

  /// `group_slot` marks positions the grammar restricts to a group (or
  /// subselect): the WHERE root, OPTIONAL/MINUS/GRAPH/SERVICE bodies,
  /// UNION branches, EXISTS bodies. Hoisting a bare FILTER or triple
  /// into such a slot would serialize as garbage and register as a
  /// fabricated closure failure, so those hoists are skipped.
  bool ShrinkPattern(Pattern& p, bool group_slot = false) {
    bool changed = false;
    // Hoist: replace a wrapper by one of its children.
    if (p.kind() != PatternKind::kGroup || p.children().size() == 1) {
      for (size_t i = 0; i < p.children().size(); ++i) {
        PatternKind child_kind = p.children()[i].kind();
        if (group_slot && child_kind != PatternKind::kGroup &&
            child_kind != PatternKind::kSubSelect) {
          continue;
        }
        if (Attempt(p, [i](Pattern& x) {
              Pattern child = sparqlog::testing::DeepCopy(x.children()[i]);
              x = std::move(child);
            })) {
          return true;
        }
      }
    }
    size_t min_children = 0;
    switch (p.kind()) {
      case PatternKind::kUnion:
        min_children = 2;
        break;
      case PatternKind::kOptional:
      case PatternKind::kMinus:
      case PatternKind::kGraph:
      case PatternKind::kService:
        min_children = 1;
        break;
      default:
        break;
    }
    size_t i = 0;
    while (p.children().size() > min_children && i < p.children().size() &&
           Budget()) {
      Pattern removed = sparqlog::testing::DeepCopy(p.children()[i]);
      SpliceChild(p, i, nullptr);
      if (Test()) {
        changed = true;
        continue;
      }
      SpliceChild(p, i, &removed);
      ++i;
    }
    switch (p.kind()) {
      case PatternKind::kTriple:
        changed |= ShrinkTriple(p.triple());
        break;
      case PatternKind::kFilter:
        changed |= ShrinkExpr(p.expr());
        break;
      case PatternKind::kBind:
        changed |= ShrinkExpr(p.expr());
        changed |= ShrinkTerm(p.var());
        break;
      case PatternKind::kGraph:
      case PatternKind::kService:
        changed |= ShrinkTerm(p.graph());
        break;
      case PatternKind::kValues: {
        // Attempt may swap in a restored payload: no reference to the
        // table outlives a step.
        size_t r = 0;
        while (r < p.values().rows.size() && Budget()) {
          auto& rows = p.values().rows;
          auto removed = rows[r];
          rows.erase(rows.begin() + static_cast<long>(r));
          if (Test()) {
            changed = true;
            continue;
          }
          rows.insert(rows.begin() + static_cast<long>(r), std::move(removed));
          ++r;
        }
        // Drop a variable together with its column.
        size_t c = 0;
        while (p.values().vars.size() > 1 && c < p.values().vars.size() &&
               Budget()) {
          if (Attempt(p, [c](Pattern& x) {
                x.values().vars.erase(x.values().vars.begin() +
                                      static_cast<long>(c));
                for (auto& row : x.values().rows) {
                  if (c < row.size()) {
                    row.erase(row.begin() + static_cast<long>(c));
                  }
                }
              })) {
            changed = true;
          } else {
            ++c;
          }
        }
        for (Term& v : p.values().vars) changed |= ShrinkTerm(v);
        for (auto& row : p.values().rows) {
          for (auto& cell : row) {
            if (cell.has_value()) changed |= ShrinkTerm(*cell);
          }
        }
        break;
      }
      case PatternKind::kSubSelect:
        changed |= ShrinkSubquery(p.subquery());
        break;
      default:
        break;
    }
    // Children of a group are unconstrained; bodies and branches of the
    // wrapper kinds must stay groups.
    bool child_group_slot = p.kind() != PatternKind::kGroup;
    for (Pattern& c : p.children()) {
      changed |= ShrinkPattern(c, child_group_slot);
    }
    return changed;
  }

  bool ShrinkSubquery(Query& sub) {
    bool changed = false;
    if (!sub.select_star) {
      changed |= Attempt(sub, [](Query& x) {
        x.select_star = true;
        x.select_items.clear();
      });
    }
    changed |= ClearModifiers(sub);
    if (sub.has_body) {
      changed |= ShrinkPattern(sub.where, /*group_slot=*/true);
    }
    return changed;
  }

  bool ClearModifiers(Query& q) {
    bool changed = false;
    if (!q.dataset.empty()) {
      changed |= Attempt(q, [](Query& x) { x.dataset.clear(); });
    }
    if (!q.group_by.empty()) {
      changed |= Attempt(q, [](Query& x) { x.group_by.clear(); });
    }
    if (!q.having.empty()) {
      changed |= Attempt(q, [](Query& x) { x.having.clear(); });
    }
    if (!q.order_by.empty()) {
      changed |= Attempt(q, [](Query& x) { x.order_by.clear(); });
    }
    if (q.limit.has_value()) {
      changed |= Attempt(q, [](Query& x) { x.limit.reset(); });
    }
    if (q.offset.has_value()) {
      changed |= Attempt(q, [](Query& x) { x.offset.reset(); });
    }
    if (q.distinct || q.reduced) {
      changed |= Attempt(q, [](Query& x) {
        x.distinct = false;
        x.reduced = false;
      });
    }
    if (!q.prefixes.empty() || !q.base.empty()) {
      changed |= Attempt(q, [](Query& x) {
        x.prefixes.clear();
        x.base.clear();
      });
    }
    return changed;
  }

  bool ShrinkTop() {
    bool changed = ClearModifiers(q_);
    if (q_.trailing_values.has_value()) {
      changed |= Attempt(q_, [](Query& x) { x.trailing_values.reset(); });
    }
    if (q_.form != QueryForm::kAsk) {
      changed |= Attempt(q_, [](Query& x) {
        x.form = QueryForm::kAsk;
        x.select_star = false;
        x.select_items.clear();
        x.distinct = false;
        x.reduced = false;
        x.construct_template.clear();
        x.describe_targets.clear();
        x.describe_all = false;
        if (!x.has_body) {
          x.has_body = true;
          x.where = Pattern::Group({});
        }
      });
    }
    if (q_.form == QueryForm::kSelect && !q_.select_star) {
      changed |= Attempt(q_, [](Query& x) {
        x.select_star = true;
        x.select_items.clear();
      });
      size_t i = 0;
      while (i < q_.select_items.size() && q_.select_items.size() > 1 &&
             Budget()) {
        if (Attempt(q_, [i](Query& x) {
              x.select_items.erase(x.select_items.begin() +
                                   static_cast<long>(i));
            })) {
          changed = true;
        } else {
          ++i;
        }
      }
      // By index: a failed Attempt(q_, ...) restores the whole query,
      // which would dangle any reference held across it.
      for (size_t j = 0; j < q_.select_items.size(); ++j) {
        if (!q_.select_items[j].expr.has_value()) continue;
        if (Attempt(q_,
                    [j](Query& x) { x.select_items[j].expr.reset(); })) {
          changed = true;
        } else if (ShrinkExpr(*q_.select_items[j].expr)) {
          changed = true;
        }
      }
    }
    if (q_.form == QueryForm::kConstruct) {
      size_t i = 0;
      while (i < q_.construct_template.size() && Budget()) {
        if (Attempt(q_, [i](Query& x) {
              x.construct_template.erase(x.construct_template.begin() +
                                         static_cast<long>(i));
            })) {
          changed = true;
        } else {
          ++i;
        }
      }
      for (auto& tp : q_.construct_template) changed |= ShrinkTriple(tp);
    }
    if (q_.form == QueryForm::kDescribe) {
      if (!q_.describe_all && q_.describe_targets.size() > 1) {
        size_t i = 0;
        while (q_.describe_targets.size() > 1 && i < q_.describe_targets.size() &&
               Budget()) {
          if (Attempt(q_, [i](Query& x) {
                x.describe_targets.erase(x.describe_targets.begin() +
                                         static_cast<long>(i));
              })) {
            changed = true;
          } else {
            ++i;
          }
        }
      }
      for (Term& t : q_.describe_targets) changed |= ShrinkTerm(t);
    }
    for (auto& gc : q_.group_by) changed |= ShrinkExpr(gc.expr);
    for (auto& h : q_.having) changed |= ShrinkExpr(h);
    for (auto& oc : q_.order_by) changed |= ShrinkExpr(oc.expr);
    return changed;
  }

  Query q_;
  const QueryFailPredicate& fails_;
  ShrinkOptions options_;
  int evals_ = 0;
  int accepted_ = 0;
};

}  // namespace

AstShrinkOutcome ShrinkQueryAst(const Query& failing,
                                const QueryFailPredicate& fails,
                                const ShrinkOptions& options) {
  AstShrinker shrinker(failing, fails, options);
  return shrinker.Run();
}

std::string CppStringLiteral(std::string_view s) {
  std::string out = "\"";
  for (size_t i = 0; i < s.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c >= 0x20 && c < 0x7f) {
          out.push_back(static_cast<char>(c));
        } else {
          // Three-digit octal: immune to the hex-escape maximal-munch
          // problem when a digit follows.
          char buf[5];
          buf[0] = '\\';
          buf[1] = static_cast<char>('0' + ((c >> 6) & 7));
          buf[2] = static_cast<char>('0' + ((c >> 3) & 7));
          buf[3] = static_cast<char>('0' + (c & 7));
          buf[4] = '\0';
          out += buf;
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string FormatSeedReplayReproducer(std::string_view test_name,
                                       uint64_t seed, long index,
                                       std::string_view invariant,
                                       std::string_view minimal_canonical) {
  std::string out;
  out += "// Replays fuzz seed " + std::to_string(seed) + ", query #" +
         std::to_string(index) + " (invariant: " + std::string(invariant) +
         ").\n// Shrunk canonical form:\n";
  size_t start = 0;
  while (start <= minimal_canonical.size()) {
    size_t end = minimal_canonical.find('\n', start);
    if (end == std::string_view::npos) end = minimal_canonical.size();
    out += "//   " +
           std::string(minimal_canonical.substr(start, end - start)) + "\n";
    if (end == minimal_canonical.size()) break;
    start = end + 1;
  }
  out += "TEST(FuzzRegression, " + std::string(test_name) + ") {\n";
  out += "  sparqlog::testing::QueryFuzzOptions options;\n";
  out += "  options.seed = " + std::to_string(seed) + "ULL;\n";
  out += "  sparqlog::testing::QueryFuzzer fuzzer(options);\n";
  out += "  sparqlog::sparql::Query q;\n";
  out += "  for (long i = 0; i <= " + std::to_string(index) +
         "; ++i) q = fuzzer.Next();\n";
  out += "  sparqlog::sparql::Parser parser;\n";
  out += "  auto violation = sparqlog::testing::CheckQuery(parser, q);\n";
  out += "  ASSERT_FALSE(violation.has_value())\n";
  out += "      << violation->invariant << \": \" << violation->detail;\n";
  out += "}\n";
  return out;
}

std::string FormatReproducer(std::string_view test_name,
                             std::string_view kind, std::string_view input,
                             uint64_t seed) {
  const bool is_log_line = kind == "log_line";
  std::string out;
  out += "// Minimal reproducer shrunk from fuzz seed " +
         std::to_string(seed) + " (" + std::string(kind) + " invariant).\n";
  out += "TEST(FuzzRegression, " + std::string(test_name) + ") {\n";
  out += "  sparqlog::sparql::Parser parser;\n";
  out += "  const std::string input = " + CppStringLiteral(input) + ";\n";
  if (is_log_line) {
    out += "  auto violation = sparqlog::testing::CheckLogLine(parser, input);\n";
  } else {
    out +=
        "  auto violation = sparqlog::testing::CheckQueryText(parser, "
        "input);\n";
  }
  out += "  ASSERT_FALSE(violation.has_value())\n";
  out += "      << violation->invariant << \": \" << violation->detail;\n";
  out += "}\n";
  return out;
}

}  // namespace sparqlog::testing
