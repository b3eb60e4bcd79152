#include "sparql/serializer.h"

#include <charconv>
#include <string>

namespace sparqlog::sparql {

namespace {

// Precedence for printing paths: alt < seq < unary/primary. Mirrors
// PathExpr::ToString (ast.cc); the property tests assert the two agree.
int PathPrec(PathKind k) {
  switch (k) {
    case PathKind::kAlt: return 0;
    case PathKind::kSeq: return 1;
    default: return 2;
  }
}

/// True iff a kFunction op can be rendered as a bare `NAME(args)` call
/// and survive a reparse unchanged: it must lex as one identifier,
/// already be in the parser's canonical (upper) case, and not collide
/// with a name the expression grammar routes elsewhere. Everything else
/// — extension IRIs, but also colon-free relative IRIs like `<abc>` or
/// the empty `<>` (fuzzer-found) — uses the `<iri>(args)` form.
bool BareFunctionName(std::string_view op) {
  if (op.empty()) return false;
  char first = op[0];
  if (!((first >= 'A' && first <= 'Z') || first == '_')) return false;
  for (char c : op) {
    bool ok = (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_' ||
              c == '-';
    if (!ok) return false;  // lower case, ':', '/', non-ASCII, ...
  }
  // Parsed specially, never as a plain function call. DISTINCT is here
  // because argument lists and aggregates consume a leading DISTINCT as
  // the modifier keyword: SUM(DISTINCT(?x)) reparses as SUM(DISTINCT ?x).
  static constexpr std::string_view kReserved[] = {
      "TRUE", "FALSE", "EXISTS", "NOT",    "COUNT",        "SUM",
      "MIN",  "MAX",   "AVG",    "SAMPLE", "GROUP_CONCAT", "DISTINCT"};
  for (std::string_view r : kReserved) {
    if (op == r) return false;
  }
  return true;
}

/// True iff serializing `e` emits a leading '(' — the kinds rendered
/// through the infix/unary "(...)" forms. Lets the HAVING writer decide
/// whether to add wrapping parentheses without materializing the
/// expression first (the old code inspected the string's first byte).
bool StartsWithParen(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kTerm:
    case ExprKind::kFunction:
    case ExprKind::kAggregate:
    case ExprKind::kExists:
    case ExprKind::kNotExists:
      return false;
    default:
      return true;
  }
}

/// Streams the canonical form of an AST into a sink. Templated on the
/// concrete sink type so the hot instantiations (StringSink,
/// HashingSink — both final) devirtualize every Write; the `Sink`
/// instantiation serves arbitrary external sinks.
template <typename S>
class Writer {
 public:
  explicit Writer(S& out) : out_(out) {}

  void WriteQuery(const Query& q) {
    switch (q.form) {
      case QueryForm::kSelect:
        WriteSelectClause(q);
        break;
      case QueryForm::kAsk:
        Put("ASK");
        break;
      case QueryForm::kConstruct: {
        Put("CONSTRUCT {\n");
        for (const TriplePattern& tp : q.construct_template) {
          Put("  ");
          WriteTriple(tp);
          Put(" .\n");
        }
        Put("}");
        break;
      }
      case QueryForm::kDescribe: {
        Put("DESCRIBE");
        if (q.describe_all) {
          Put(" *");
        } else {
          for (const Term& t : q.describe_targets) {
            Put(" ");
            WriteTerm(t);
          }
        }
        break;
      }
    }
    for (const DatasetClause& dc : q.dataset) {
      Put("\nFROM ");
      if (dc.named) Put("NAMED ");
      Put("<");
      Put(dc.iri);
      Put(">");
    }
    if (q.has_body) {
      Put(q.form == QueryForm::kAsk ? " " : "\nWHERE ");
      WritePattern(q.where, 0);
    }
    WriteSolutionModifier(q);
    if (q.trailing_values.has_value()) {
      Put("\n");
      WritePattern(*q.trailing_values, 0);
    }
  }

  void WritePattern(const Pattern& p, int indent) {
    switch (p.kind()) {
      case PatternKind::kGroup: {
        Put("{\n");
        for (const Pattern& c : p.children()) {
          WritePattern(c, indent + 1);
        }
        PutIndent(indent);
        Put("}");
        return;
      }
      case PatternKind::kTriple:
        PutIndent(indent);
        WriteTriple(p.triple());
        Put(" .\n");
        return;
      case PatternKind::kFilter:
        PutIndent(indent);
        Put("FILTER ");
        WriteExpr(p.expr());
        Put("\n");
        return;
      case PatternKind::kUnion: {
        PutIndent(indent);
        for (size_t i = 0; i < p.children().size(); ++i) {
          if (i > 0) Put(" UNION ");
          WritePattern(p.children()[i], indent);
        }
        Put("\n");
        return;
      }
      case PatternKind::kOptional:
        PutIndent(indent);
        Put("OPTIONAL ");
        WritePattern(p.children()[0], indent);
        Put("\n");
        return;
      case PatternKind::kMinus:
        PutIndent(indent);
        Put("MINUS ");
        WritePattern(p.children()[0], indent);
        Put("\n");
        return;
      case PatternKind::kGraph:
        PutIndent(indent);
        Put("GRAPH ");
        WriteTerm(p.graph());
        Put(" ");
        WritePattern(p.children()[0], indent);
        Put("\n");
        return;
      case PatternKind::kService:
        PutIndent(indent);
        Put("SERVICE ");
        if (p.silent()) Put("SILENT ");
        WriteTerm(p.graph());
        Put(" ");
        WritePattern(p.children()[0], indent);
        Put("\n");
        return;
      case PatternKind::kBind:
        PutIndent(indent);
        Put("BIND(");
        WriteExpr(p.expr());
        Put(" AS ");
        WriteTerm(p.var());
        Put(")\n");
        return;
      case PatternKind::kValues: {
        PutIndent(indent);
        Put("VALUES (");
        for (size_t i = 0; i < p.values().vars.size(); ++i) {
          if (i > 0) Put(" ");
          WriteTerm(p.values().vars[i]);
        }
        Put(") {\n");
        for (const auto& row : p.values().rows) {
          PutIndent(indent + 1);
          Put("(");
          for (size_t i = 0; i < row.size(); ++i) {
            if (i > 0) Put(" ");
            if (row[i].has_value()) {
              WriteTerm(*row[i]);
            } else {
              Put("UNDEF");
            }
          }
          Put(")\n");
        }
        PutIndent(indent);
        Put("}\n");
        return;
      }
      case PatternKind::kSubSelect: {
        PutIndent(indent);
        Put("{\n");
        PutIndent(indent + 1);
        {
          // Serialize the subquery without a prologue.
          const Query& sub = p.subquery();
          WriteSelectClause(sub);
          Put(" WHERE ");
          if (sub.has_body) WritePattern(sub.where, indent + 1);
          WriteSolutionModifier(sub);
        }
        Put("\n");
        PutIndent(indent);
        Put("}\n");
        return;
      }
    }
  }

  void WriteExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kTerm:
        WriteTerm(e.term);
        return;
      case ExprKind::kOr:
        WriteArgsInfix(e, "||");
        return;
      case ExprKind::kAnd:
        WriteArgsInfix(e, "&&");
        return;
      case ExprKind::kNot:
        Put("(! ");
        WriteExpr(e.args[0]);
        Put(")");
        return;
      case ExprKind::kCompare:
      case ExprKind::kArith:
        WriteArgsInfix(e, e.op);
        return;
      case ExprKind::kIn:
      case ExprKind::kNotIn: {
        Put("(");
        WriteExpr(e.args[0]);
        Put(e.kind == ExprKind::kIn ? " IN (" : " NOT IN (");
        for (size_t i = 1; i < e.args.size(); ++i) {
          if (i > 1) Put(", ");
          WriteExpr(e.args[i]);
        }
        Put("))");
        return;
      }
      case ExprKind::kUnaryMinus:
        Put("(- ");
        WriteExpr(e.args[0]);
        Put(")");
        return;
      case ExprKind::kUnaryPlus:
        Put("(+ ");
        WriteExpr(e.args[0]);
        Put(")");
        return;
      case ExprKind::kFunction: {
        if (BareFunctionName(e.op)) {
          Put(e.op);
        } else {
          Put("<");
          Put(e.op);
          Put(">");
        }
        Put("(");
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) Put(", ");
          WriteExpr(e.args[i]);
        }
        Put(")");
        return;
      }
      case ExprKind::kAggregate: {
        Put(e.op);
        Put("(");
        if (e.distinct) Put("DISTINCT ");
        if (e.star) {
          Put("*");
        } else if (!e.args.empty()) {
          WriteExpr(e.args[0]);
        }
        if (!e.separator.empty()) {
          // Escaped like any literal body: a separator containing a
          // quote or newline must still reparse (fuzzer-found).
          Put("; SEPARATOR=\"");
          PutEscaped(e.separator);
          Put("\"");
        }
        Put(")");
        return;
      }
      case ExprKind::kExists:
      case ExprKind::kNotExists:
        Put(e.kind == ExprKind::kExists ? "EXISTS " : "NOT EXISTS ");
        if (e.pattern) WritePattern(*e.pattern, 0);
        return;
    }
  }

  void WriteTriple(const TriplePattern& tp) {
    WriteTerm(tp.subject);
    Put(" ");
    if (tp.has_path()) {
      WritePath(tp.path());
    } else {
      WriteTerm(tp.predicate);
    }
    Put(" ");
    WriteTerm(tp.object);
  }

 private:
  void Put(std::string_view s) { out_.Write(s); }

  void PutIndent(int n) {
    static constexpr std::string_view kSpaces = "                ";
    size_t want = static_cast<size_t>(n) * 2;
    while (want > 0) {
      size_t take = want < kSpaces.size() ? want : kSpaces.size();
      Put(kSpaces.substr(0, take));
      want -= take;
    }
  }

  void PutNumber(uint64_t v) {
    char buf[20];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    Put(std::string_view(buf, static_cast<size_t>(ptr - buf)));
  }

  /// Literal body with SPARQL escapes, streamed as runs between escape
  /// points (mirrors rdf::Term::ToString's EscapeLiteral byte for byte).
  void PutEscaped(std::string_view s) {
    size_t start = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      std::string_view rep;
      switch (s[i]) {
        case '"': rep = "\\\""; break;
        case '\\': rep = "\\\\"; break;
        case '\n': rep = "\\n"; break;
        case '\r': rep = "\\r"; break;
        case '\t': rep = "\\t"; break;
        default: continue;
      }
      if (i > start) Put(s.substr(start, i - start));
      Put(rep);
      start = i + 1;
    }
    if (start < s.size()) Put(s.substr(start));
  }

  void WriteTerm(const Term& t) {
    switch (t.kind) {
      case rdf::TermKind::kIri:
        Put("<");
        Put(t.value);
        Put(">");
        return;
      case rdf::TermKind::kLiteral:
        Put("\"");
        PutEscaped(t.value);
        Put("\"");
        if (!t.lang.empty()) {
          Put("@");
          Put(t.lang);
        } else if (!t.datatype.empty()) {
          Put("^^<");
          Put(t.datatype);
          Put(">");
        }
        return;
      case rdf::TermKind::kBlank:
        Put("_:");
        Put(t.value);
        return;
      case rdf::TermKind::kVariable:
        Put("?");
        Put(t.value);
        return;
    }
  }

  void WritePathChild(const PathExpr& parent, const PathExpr& child) {
    bool parent_unary = parent.kind == PathKind::kZeroOrMore ||
                        parent.kind == PathKind::kOneOrMore ||
                        parent.kind == PathKind::kZeroOrOne ||
                        parent.kind == PathKind::kInverse;
    // Unary path operators apply to a PathPrimary (a link or a negated
    // set); anything else must be bracketed. In particular `(^a)*` must
    // not print as `^a*`, which parses as `^(a*)`.
    bool child_primary =
        child.kind == PathKind::kLink || child.kind == PathKind::kNegated;
    bool paren = PathPrec(child.kind) < PathPrec(parent.kind) ||
                 (parent_unary && !child_primary);
    if (paren) Put("(");
    WritePath(child);
    if (paren) Put(")");
  }

  void WritePath(const PathExpr& p) {
    switch (p.kind) {
      case PathKind::kLink:
        Put("<");
        Put(p.iri);
        Put(">");
        return;
      case PathKind::kInverse:
        Put("^");
        WritePathChild(p, p.children[0]);
        return;
      case PathKind::kNegated: {
        Put("!(");
        for (size_t i = 0; i < p.children.size(); ++i) {
          if (i > 0) Put("|");
          WritePath(p.children[i]);
        }
        Put(")");
        return;
      }
      case PathKind::kSeq:
      case PathKind::kAlt: {
        std::string_view sep = p.kind == PathKind::kSeq ? "/" : "|";
        for (size_t i = 0; i < p.children.size(); ++i) {
          if (i > 0) Put(sep);
          WritePathChild(p, p.children[i]);
        }
        return;
      }
      case PathKind::kZeroOrMore:
        WritePathChild(p, p.children[0]);
        Put("*");
        return;
      case PathKind::kOneOrMore:
        WritePathChild(p, p.children[0]);
        Put("+");
        return;
      case PathKind::kZeroOrOne:
        WritePathChild(p, p.children[0]);
        Put("?");
        return;
    }
  }

  void WriteSelectClause(const Query& q) {
    Put("SELECT ");
    if (q.distinct) Put("DISTINCT ");
    if (q.reduced) Put("REDUCED ");
    if (q.select_star) {
      Put("*");
      return;
    }
    for (size_t i = 0; i < q.select_items.size(); ++i) {
      if (i > 0) Put(" ");
      const SelectItem& item = q.select_items[i];
      if (item.expr.has_value()) {
        Put("(");
        WriteExpr(*item.expr);
        Put(" AS ");
        WriteTerm(item.var);
        Put(")");
      } else {
        WriteTerm(item.var);
      }
    }
  }

  void WriteArgsInfix(const Expr& e, std::string_view op) {
    Put("(");
    for (size_t i = 0; i < e.args.size(); ++i) {
      if (i > 0) {
        Put(" ");
        Put(op);
        Put(" ");
      }
      WriteExpr(e.args[i]);
    }
    Put(")");
  }

  void WriteSolutionModifier(const Query& q) {
    if (!q.group_by.empty()) {
      Put("\nGROUP BY");
      for (const GroupCondition& gc : q.group_by) {
        if (gc.as_var.has_value()) {
          Put(" (");
          WriteExpr(gc.expr);
          Put(" AS ");
          WriteTerm(*gc.as_var);
          Put(")");
        } else if (gc.expr.is_variable()) {
          Put(" ");
          WriteTerm(gc.expr.term);
        } else {
          Put(" (");
          WriteExpr(gc.expr);
          Put(")");
        }
      }
    }
    if (!q.having.empty()) {
      Put("\nHAVING");
      for (const Expr& e : q.having) {
        Put(" ");
        bool wrap = !StartsWithParen(e);
        if (wrap) Put("(");
        WriteExpr(e);
        if (wrap) Put(")");
      }
    }
    if (!q.order_by.empty()) {
      Put("\nORDER BY");
      for (const OrderCondition& oc : q.order_by) {
        if (oc.descending) {
          Put(" DESC(");
          WriteExpr(oc.expr);
          Put(")");
        } else if (oc.expr.is_variable()) {
          Put(" ");
          WriteTerm(oc.expr.term);
        } else {
          Put(" ASC(");
          WriteExpr(oc.expr);
          Put(")");
        }
      }
    }
    if (q.limit.has_value()) {
      Put("\nLIMIT ");
      PutNumber(*q.limit);
    }
    if (q.offset.has_value()) {
      Put("\nOFFSET ");
      PutNumber(*q.offset);
    }
  }

  S& out_;
};

}  // namespace

std::string Serialize(const Query& q) {
  StringSink sink;
  Writer<StringSink> w(sink);
  w.WriteQuery(q);
  return std::move(sink).str();
}

uint64_t CanonicalHash(const Query& q) {
  HashingSink sink;
  Writer<HashingSink> w(sink);
  w.WriteQuery(q);
  return sink.hash();
}

void SerializeTo(const Query& q, Sink& sink) {
  Writer<Sink> w(sink);
  w.WriteQuery(q);
}

std::string SerializePattern(const Pattern& p, int indent) {
  StringSink sink;
  Writer<StringSink> w(sink);
  w.WritePattern(p, indent);
  return std::move(sink).str();
}

std::string SerializeExpr(const Expr& e) {
  StringSink sink;
  Writer<StringSink> w(sink);
  w.WriteExpr(e);
  return std::move(sink).str();
}

std::string SerializeTriple(const TriplePattern& tp) {
  StringSink sink;
  Writer<StringSink> w(sink);
  w.WriteTriple(tp);
  return std::move(sink).str();
}

}  // namespace sparqlog::sparql
