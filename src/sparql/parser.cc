#include "sparql/parser.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <memory>
#include <utility>

#include "sparql/lexer.h"
#include "util/strings.h"

namespace sparqlog::sparql {

using util::EqualsIgnoreCase;
using util::Result;
using util::Status;

namespace {

constexpr char kRdfType[] = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
constexpr char kRdfFirst[] =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#first";
constexpr char kRdfRest[] = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest";
constexpr char kRdfNil[] = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil";
constexpr char kXsdInteger[] = "http://www.w3.org/2001/XMLSchema#integer";
constexpr char kXsdDecimal[] = "http://www.w3.org/2001/XMLSchema#decimal";
constexpr char kXsdDouble[] = "http://www.w3.org/2001/XMLSchema#double";
constexpr char kXsdBoolean[] = "http://www.w3.org/2001/XMLSchema#boolean";

/// Prefixes assumed to be pre-declared by the endpoint (see Parser),
/// sorted by prefix for binary search. A constant table: building a
/// parser costs nothing.
constexpr std::array<std::pair<std::string_view, std::string_view>, 26>
    kDefaultPrefixes = {{
        {"bd", "http://www.bigdata.com/rdf#"},
        {"bif", "http://www.openlinksw.com/schemas/bif#"},
        {"biopax", "http://www.biopax.org/release/biopax-level3.owl#"},
        {"bm", "http://collection.britishmuseum.org/id/ontology/"},
        {"crm", "http://www.cidoc-crm.org/cidoc-crm/"},
        {"dbo", "http://dbpedia.org/ontology/"},
        {"dbp", "http://dbpedia.org/property/"},
        {"dbr", "http://dbpedia.org/resource/"},
        {"dc", "http://purl.org/dc/elements/1.1/"},
        {"dct", "http://purl.org/dc/terms/"},
        {"ex", "http://example.org/"},
        {"foaf", "http://xmlns.com/foaf/0.1/"},
        {"geo", "http://www.w3.org/2003/01/geo/wgs84_pos#"},
        {"lgdo", "http://linkedgeodata.org/ontology/"},
        {"owl", "http://www.w3.org/2002/07/owl#"},
        {"p", "http://www.wikidata.org/prop/"},
        {"pq", "http://www.wikidata.org/prop/qualifier/"},
        {"ps", "http://www.wikidata.org/prop/statement/"},
        {"rdf", "http://www.w3.org/1999/02/22-rdf-syntax-ns#"},
        {"rdfs", "http://www.w3.org/2000/01/rdf-schema#"},
        {"skos", "http://www.w3.org/2004/02/skos/core#"},
        {"swdf", "http://data.semanticweb.org/ns/swc/ontology#"},
        {"wd", "http://www.wikidata.org/entity/"},
        {"wdt", "http://www.wikidata.org/prop/direct/"},
        {"wikibase", "http://wikiba.se/ontology#"},
        {"xsd", "http://www.w3.org/2001/XMLSchema#"},
    }};
static_assert(std::is_sorted(kDefaultPrefixes.begin(), kDefaultPrefixes.end()),
              "kDefaultPrefixes must stay sorted for binary search");

/// The default table's IRI for `prefix`, or nullptr if it has none.
const std::string_view* FindDefaultPrefix(std::string_view prefix) {
  auto it = std::lower_bound(
      kDefaultPrefixes.begin(), kDefaultPrefixes.end(), prefix,
      [](const auto& entry, std::string_view p) { return entry.first < p; });
  if (it == kDefaultPrefixes.end() || it->first != prefix) return nullptr;
  return &it->second;
}

/// The stateful single-pass parser over a token stream. Token values
/// are views into the input text / token stream, both of which outlive
/// the parse; the parser materializes them exactly once, at
/// AST-construction sites, onto `mr_` — the caller's arena on the
/// scratch path, the default heap resource otherwise. Every node is
/// constructed with `mr_` from birth, so moves between nodes stay
/// pointer steals and nothing silently re-copies.
class Impl {
 public:
  Impl(const TokenStream& tokens, std::pmr::memory_resource* mr,
       util::StringInterner* pname_cache)
      : tokens_(tokens.tokens()),
        mr_(mr),
        pname_cache_(pname_cache),
        local_prefixes_(mr) {}

  Result<Query> ParseQueryUnit() {
    Query q(mr_);
    if (auto s = ParsePrologue(q); !s.ok()) return s;
    const Token& t = Cur();
    if (!t.Is(TokenType::kIdent)) {
      return Err("expected a query form keyword");
    }
    Status s = Status::OK();
    if (IsKeyword("SELECT")) {
      s = ParseSelectQuery(q);
    } else if (IsKeyword("ASK")) {
      s = ParseAskQuery(q);
    } else if (IsKeyword("CONSTRUCT")) {
      s = ParseConstructQuery(q);
    } else if (IsKeyword("DESCRIBE")) {
      s = ParseDescribeQuery(q);
    } else if (IsKeyword("INSERT") || IsKeyword("DELETE") ||
               IsKeyword("LOAD") || IsKeyword("CLEAR") ||
               IsKeyword("DROP") || IsKeyword("CREATE") ||
               IsKeyword("ADD") || IsKeyword("MOVE") || IsKeyword("COPY") ||
               IsKeyword("WITH")) {
      return Status::Unsupported("SPARQL Update request, not a query");
    } else {
      std::string msg("unknown query form '");
      msg.append(t.value);
      msg.push_back('\'');
      return Err(std::move(msg));
    }
    if (!s.ok()) return s;
    // Trailing VALUES clause.
    if (IsKeyword("VALUES")) {
      Result<Pattern> values = ParseInlineData();
      if (!values.ok()) return values.status();
      q.trailing_values = std::move(values).value();
    }
    if (!Cur().Is(TokenType::kEof)) {
      return Err("unexpected trailing input");
    }
    return q;
  }

 private:
  // --- Token plumbing -----------------------------------------------------

  const Token& Cur() const { return tokens_[idx_]; }
  const Token& Ahead(size_t n) const {
    size_t i = idx_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Bump() {
    if (idx_ + 1 < tokens_.size()) ++idx_;
  }
  bool Is(TokenType t) const { return Cur().Is(t); }
  bool Accept(TokenType t) {
    if (Is(t)) {
      Bump();
      return true;
    }
    return false;
  }
  Status Expect(TokenType t, const char* context) {
    if (!Is(t)) {
      return Err(std::string("expected ") + TokenTypeName(t) + " in " +
                 context + ", found " + TokenTypeName(Cur().type));
    }
    Bump();
    return Status::OK();
  }
  bool IsKeyword(const char* kw) const {
    return Is(TokenType::kIdent) && EqualsIgnoreCase(Cur().value, kw);
  }
  bool AcceptKeyword(const char* kw) {
    if (IsKeyword(kw)) {
      Bump();
      return true;
    }
    return false;
  }
  Status Err(std::string msg) const {
    return Status::InvalidArgument("parse error at line " +
                                   std::to_string(Cur().line) + ": " +
                                   std::move(msg));
  }

  /// Depth accounting for the mutually recursive productions. Each
  /// recursion entry point (group graph patterns, path groups,
  /// parenthesized expressions) holds one of these for its frame;
  /// `ok()` is false once the combined nesting exceeds
  /// Parser::kMaxRecursionDepth, turning pathological inputs into a
  /// parse error before the C++ stack is at risk.
  class DepthGuard {
   public:
    explicit DepthGuard(Impl* impl) : impl_(impl) { ++impl_->depth_; }
    ~DepthGuard() { --impl_->depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    bool ok() const {
      return impl_->depth_ <= Parser::kMaxRecursionDepth;
    }

   private:
    Impl* impl_;
  };

  Status DepthErr() const {
    return Err("query nesting exceeds the maximum depth of " +
               std::to_string(Parser::kMaxRecursionDepth));
  }

  /// Keywords that terminate a GROUP BY / HAVING / ORDER BY condition
  /// list; they must not be mistaken for function calls.
  bool AtModifierKeyword() const {
    return IsKeyword("GROUP") || IsKeyword("HAVING") || IsKeyword("ORDER") ||
           IsKeyword("LIMIT") || IsKeyword("OFFSET") || IsKeyword("VALUES") ||
           IsKeyword("ASC") || IsKeyword("DESC");
  }

  /// "genN" stays within SSO for any realistic counter, so the returned
  /// string never heap-allocates.
  std::string FreshBlank() { return "gen" + std::to_string(blank_counter_++); }

  /// Integer-token value -> uint64_t (the lexer guarantees digits only,
  /// matching the old strtoull semantics including overflow clamping).
  static uint64_t ParseUnsigned(std::string_view digits) {
    uint64_t v = 0;
    auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), v);
    if (ec == std::errc::result_out_of_range) v = UINT64_MAX;
    (void)ptr;
    return v;
  }

  // --- Prologue -----------------------------------------------------------

  Status ParsePrologue(Query& q) {
    for (;;) {
      if (AcceptKeyword("BASE")) {
        if (!Is(TokenType::kIriRef)) return Err("expected IRI after BASE");
        q.base = Cur().value;
        Bump();
      } else if (AcceptKeyword("PREFIX")) {
        if (!Is(TokenType::kPName)) {
          return Err("expected prefix name after PREFIX");
        }
        std::string_view pname = Cur().value;
        Bump();
        if (pname.empty() || pname.back() != ':') {
          return Err("bad prefix declaration '" + std::string(pname) + "'");
        }
        pname.remove_suffix(1);
        if (!Is(TokenType::kIriRef)) {
          return Err("expected IRI in PREFIX declaration");
        }
        // Token values outlive the parse, so the lookup table can hold
        // views; a later re-declaration wins (reverse lookup order).
        local_prefixes_.emplace_back(pname, Cur().value);
        q.prefixes.emplace_back(pname, Cur().value);
        Bump();
      } else {
        return Status::OK();
      }
    }
  }

  Result<AstString> ExpandPName(std::string_view pname) const {
    // Cross-line cache: sound only when this query declares no local
    // prefixes (then the expansion depends solely on the constant
    // default prefix table).
    const bool cacheable = pname_cache_ != nullptr && local_prefixes_.empty();
    if (cacheable) {
      if (const std::string_view* hit = pname_cache_->Find(pname)) {
        return AstString(*hit, mr_);
      }
    }
    size_t colon = pname.find(':');
    std::string_view prefix = pname.substr(0, colon);
    std::string_view local = pname.substr(colon + 1);
    std::string_view base;
    bool found = false;
    for (auto it = local_prefixes_.rbegin(); it != local_prefixes_.rend();
         ++it) {
      if (it->first == prefix) {
        base = it->second;
        found = true;
        break;
      }
    }
    if (!found) {
      if (const std::string_view* iri = FindDefaultPrefix(prefix)) {
        base = *iri;
        found = true;
      }
    }
    if (!found) {
      std::string msg("undeclared prefix '");
      msg.append(prefix).append(":'");
      return Status::InvalidArgument(std::move(msg));
    }
    AstString full(mr_);
    full.reserve(base.size() + local.size());
    full.append(base).append(local);
    if (cacheable) pname_cache_->Insert(pname, full);
    return full;
  }

  // --- Query forms ----------------------------------------------------------

  Status ParseSelectQuery(Query& q) {
    q.form = QueryForm::kSelect;
    if (auto s = ParseSelectClause(q); !s.ok()) return s;
    if (auto s = ParseDatasetClauses(q); !s.ok()) return s;
    if (auto s = ParseWhereClause(q); !s.ok()) return s;
    return ParseSolutionModifier(q);
  }

  Status ParseSelectClause(Query& q) {
    Bump();  // SELECT
    if (AcceptKeyword("DISTINCT")) {
      q.distinct = true;
    } else if (AcceptKeyword("REDUCED")) {
      q.reduced = true;
    }
    if (Accept(TokenType::kStar)) {
      q.select_star = true;
      return Status::OK();
    }
    bool any = false;
    for (;;) {
      if (Is(TokenType::kVar)) {
        SelectItem item(mr_);
        item.var = Term::Var(Cur().value, mr_);
        Bump();
        q.select_items.push_back(std::move(item));
        any = true;
      } else if (Is(TokenType::kLParen)) {
        Bump();
        Result<Expr> e = ParseExpression();
        if (!e.ok()) return e.status();
        if (!AcceptKeyword("AS")) return Err("expected AS in SELECT (... )");
        if (!Is(TokenType::kVar)) return Err("expected variable after AS");
        SelectItem item(mr_);
        item.var = Term::Var(Cur().value, mr_);
        item.expr = std::move(e).value();
        Bump();
        if (auto s = Expect(TokenType::kRParen, "SELECT item"); !s.ok()) {
          return s;
        }
        q.select_items.push_back(std::move(item));
        any = true;
      } else {
        break;
      }
    }
    if (!any) return Err("empty SELECT clause");
    return Status::OK();
  }

  Status ParseAskQuery(Query& q) {
    q.form = QueryForm::kAsk;
    Bump();  // ASK
    if (auto s = ParseDatasetClauses(q); !s.ok()) return s;
    if (auto s = ParseWhereClause(q); !s.ok()) return s;
    return ParseSolutionModifier(q);
  }

  Status ParseConstructQuery(Query& q) {
    q.form = QueryForm::kConstruct;
    Bump();  // CONSTRUCT
    if (Is(TokenType::kLBrace)) {
      // Full form: CONSTRUCT { template } DatasetClause* WHERE GGP.
      Bump();
      if (auto s = ParseTriplesTemplate(q.construct_template); !s.ok()) {
        return s;
      }
      if (auto s = Expect(TokenType::kRBrace, "CONSTRUCT template"); !s.ok()) {
        return s;
      }
      if (auto s = ParseDatasetClauses(q); !s.ok()) return s;
      if (auto s = ParseWhereClause(q); !s.ok()) return s;
      return ParseSolutionModifier(q);
    }
    // Short form: CONSTRUCT DatasetClause* WHERE { triples }.
    if (auto s = ParseDatasetClauses(q); !s.ok()) return s;
    if (!AcceptKeyword("WHERE")) {
      return Err("expected template or WHERE after CONSTRUCT");
    }
    if (auto s = Expect(TokenType::kLBrace, "CONSTRUCT WHERE"); !s.ok()) {
      return s;
    }
    if (auto s = ParseTriplesTemplate(q.construct_template); !s.ok()) return s;
    if (auto s = Expect(TokenType::kRBrace, "CONSTRUCT WHERE"); !s.ok()) {
      return s;
    }
    // The template doubles as the pattern. Copy-assign into
    // mr_-constructed triples: the copies stay on the parse resource.
    AstVector<Pattern> children(mr_);
    children.reserve(q.construct_template.size());
    for (const TriplePattern& tp : q.construct_template) {
      TriplePattern copy(mr_);
      copy = tp;
      children.push_back(Pattern::Triple(std::move(copy)));
    }
    q.has_body = true;
    q.where = Pattern::Group(std::move(children));
    return ParseSolutionModifier(q);
  }

  Status ParseDescribeQuery(Query& q) {
    q.form = QueryForm::kDescribe;
    Bump();  // DESCRIBE
    if (Accept(TokenType::kStar)) {
      q.describe_all = true;
    } else {
      bool any = false;
      for (;;) {
        if (Is(TokenType::kVar)) {
          q.describe_targets.push_back(Term::Var(Cur().value, mr_));
          Bump();
          any = true;
        } else if (Is(TokenType::kIriRef) || Is(TokenType::kPName)) {
          Result<Term> t = ParseIri();
          if (!t.ok()) return t.status();
          q.describe_targets.push_back(std::move(t).value());
          any = true;
        } else {
          break;
        }
      }
      if (!any) return Err("expected variable, IRI, or * after DESCRIBE");
    }
    if (auto s = ParseDatasetClauses(q); !s.ok()) return s;
    if (IsKeyword("WHERE") || Is(TokenType::kLBrace)) {
      if (auto s = ParseWhereClause(q); !s.ok()) return s;
    }
    return ParseSolutionModifier(q);
  }

  Status ParseDatasetClauses(Query& q) {
    while (AcceptKeyword("FROM")) {
      DatasetClause dc(mr_);
      dc.named = AcceptKeyword("NAMED");
      Result<Term> iri = ParseIri();
      if (!iri.ok()) return iri.status();
      dc.iri = iri.value().value;
      q.dataset.push_back(std::move(dc));
    }
    return Status::OK();
  }

  Status ParseWhereClause(Query& q) {
    AcceptKeyword("WHERE");  // optional before '{'
    Result<Pattern> body = ParseGroupGraphPattern();
    if (!body.ok()) return body.status();
    q.has_body = true;
    q.where = std::move(body).value();
    return Status::OK();
  }

  // --- Solution modifiers ---------------------------------------------------

  Status ParseSolutionModifier(Query& q) {
    if (AcceptKeyword("GROUP")) {
      if (!AcceptKeyword("BY")) return Err("expected BY after GROUP");
      bool any = false;
      for (;;) {
        GroupCondition gc(mr_);
        if (Is(TokenType::kVar)) {
          gc.expr = Expr::MakeVar(Cur().value, mr_);
          Bump();
        } else if (Is(TokenType::kLParen)) {
          Bump();
          Result<Expr> e = ParseExpression();
          if (!e.ok()) return e.status();
          gc.expr = std::move(e).value();
          if (AcceptKeyword("AS")) {
            if (!Is(TokenType::kVar)) return Err("expected variable after AS");
            gc.as_var = Term::Var(Cur().value, mr_);
            Bump();
          }
          if (auto s = Expect(TokenType::kRParen, "GROUP BY"); !s.ok()) {
            return s;
          }
        } else if (Is(TokenType::kIdent) && !AtModifierKeyword() &&
                   Ahead(1).Is(TokenType::kLParen)) {
          Result<Expr> e = ParsePrimaryExpression();
          if (!e.ok()) return e.status();
          gc.expr = std::move(e).value();
        } else if (Is(TokenType::kIriRef) || Is(TokenType::kPName)) {
          Result<Expr> e = ParsePrimaryExpression();
          if (!e.ok()) return e.status();
          gc.expr = std::move(e).value();
        } else {
          break;
        }
        q.group_by.push_back(std::move(gc));
        any = true;
      }
      if (!any) return Err("empty GROUP BY");
    }
    if (AcceptKeyword("HAVING")) {
      bool any = false;
      while (Is(TokenType::kLParen) ||
             (Is(TokenType::kIdent) && !AtModifierKeyword() &&
              Ahead(1).Is(TokenType::kLParen))) {
        Result<Expr> e = ParseConstraint();
        if (!e.ok()) return e.status();
        q.having.push_back(std::move(e).value());
        any = true;
      }
      if (!any) return Err("empty HAVING");
    }
    if (AcceptKeyword("ORDER")) {
      if (!AcceptKeyword("BY")) return Err("expected BY after ORDER");
      bool any = false;
      for (;;) {
        OrderCondition oc(mr_);
        if (AcceptKeyword("ASC") || AcceptKeyword("DESC")) {
          oc.descending = EqualsIgnoreCase(tokens_[idx_ - 1].value, "DESC");
          if (!Is(TokenType::kLParen)) return Err("expected ( after ASC/DESC");
          Bump();
          Result<Expr> e = ParseExpression();
          if (!e.ok()) return e.status();
          oc.expr = std::move(e).value();
          if (auto s = Expect(TokenType::kRParen, "ORDER BY"); !s.ok()) {
            return s;
          }
        } else if (Is(TokenType::kVar)) {
          oc.expr = Expr::MakeVar(Cur().value, mr_);
          Bump();
        } else if (Is(TokenType::kLParen) ||
                   (Is(TokenType::kIdent) && !AtModifierKeyword() &&
                    Ahead(1).Is(TokenType::kLParen))) {
          Result<Expr> e = ParseConstraint();
          if (!e.ok()) return e.status();
          oc.expr = std::move(e).value();
        } else {
          break;
        }
        q.order_by.push_back(std::move(oc));
        any = true;
      }
      if (!any) return Err("empty ORDER BY");
    }
    // LIMIT and OFFSET in either order.
    for (int i = 0; i < 2; ++i) {
      if (AcceptKeyword("LIMIT")) {
        if (!Is(TokenType::kInteger)) return Err("expected integer LIMIT");
        q.limit = ParseUnsigned(Cur().value);
        Bump();
      } else if (AcceptKeyword("OFFSET")) {
        if (!Is(TokenType::kInteger)) return Err("expected integer OFFSET");
        q.offset = ParseUnsigned(Cur().value);
        Bump();
      }
    }
    return Status::OK();
  }

  // --- Group graph patterns -------------------------------------------------

  Result<Pattern> ParseGroupGraphPattern() {
    DepthGuard depth(this);
    if (!depth.ok()) return DepthErr();
    if (auto s = Expect(TokenType::kLBrace, "group graph pattern"); !s.ok()) {
      return s;
    }
    if (IsKeyword("SELECT")) {
      // `{ SELECT ... }` is the subquery itself; do not wrap it in an
      // extra group (keeps the serialization canonical).
      Result<Pattern> sub = ParseSubSelect();
      if (!sub.ok()) return sub;
      if (auto s = Expect(TokenType::kRBrace, "subquery"); !s.ok()) return s;
      return sub;
    }
    AstVector<Pattern> children(mr_);
    if (auto s = ParseTriplesBlock(children); !s.ok()) return s;
    while (!Is(TokenType::kRBrace)) {
      if (Is(TokenType::kEof)) return Err("unterminated group graph pattern");
      if (IsKeyword("FILTER")) {
        Bump();
        Result<Expr> e = ParseConstraint();
        if (!e.ok()) return e.status();
        children.push_back(Pattern::Filter(std::move(e).value()));
      } else if (IsKeyword("OPTIONAL")) {
        Bump();
        Result<Pattern> body = ParseGroupGraphPattern();
        if (!body.ok()) return body;
        children.push_back(Pattern::Optional(std::move(body).value()));
      } else if (IsKeyword("MINUS")) {
        Bump();
        Result<Pattern> body = ParseGroupGraphPattern();
        if (!body.ok()) return body;
        children.push_back(Pattern::Minus(std::move(body).value()));
      } else if (IsKeyword("GRAPH")) {
        Bump();
        Result<Term> iv = ParseVarOrIri();
        if (!iv.ok()) return iv.status();
        Result<Pattern> body = ParseGroupGraphPattern();
        if (!body.ok()) return body;
        children.push_back(
            Pattern::Graph(std::move(iv).value(), std::move(body).value()));
      } else if (IsKeyword("SERVICE")) {
        Bump();
        bool silent = AcceptKeyword("SILENT");
        Result<Term> iv = ParseVarOrIri();
        if (!iv.ok()) return iv.status();
        Result<Pattern> body = ParseGroupGraphPattern();
        if (!body.ok()) return body;
        Pattern p(mr_);
        p.kind = PatternKind::kService;
        p.graph = std::move(iv).value();
        p.silent = silent;
        p.children.push_back(std::move(body).value());
        children.push_back(std::move(p));
      } else if (IsKeyword("BIND")) {
        Bump();
        if (auto s = Expect(TokenType::kLParen, "BIND"); !s.ok()) return s;
        Result<Expr> e = ParseExpression();
        if (!e.ok()) return e.status();
        if (!AcceptKeyword("AS")) return Err("expected AS in BIND");
        if (!Is(TokenType::kVar)) return Err("expected variable in BIND");
        Pattern p(mr_);
        p.kind = PatternKind::kBind;
        p.expr = std::move(e).value();
        p.var = Term::Var(Cur().value, mr_);
        Bump();
        if (auto s = Expect(TokenType::kRParen, "BIND"); !s.ok()) return s;
        children.push_back(std::move(p));
      } else if (IsKeyword("VALUES")) {
        Result<Pattern> values = ParseInlineData();
        if (!values.ok()) return values;
        children.push_back(std::move(values).value());
      } else if (Is(TokenType::kLBrace)) {
        Result<Pattern> gu = ParseGroupOrUnion();
        if (!gu.ok()) return gu;
        children.push_back(std::move(gu).value());
      } else {
        return Err("unexpected " + std::string(TokenTypeName(Cur().type)) +
                   " in group graph pattern");
      }
      Accept(TokenType::kDot);
      if (auto s = ParseTriplesBlock(children); !s.ok()) return s;
    }
    Bump();  // '}'
    return Pattern::Group(std::move(children));
  }

  Result<Pattern> ParseGroupOrUnion() {
    Result<Pattern> first = ParseGroupGraphPattern();
    if (!first.ok()) return first;
    if (!IsKeyword("UNION")) return first;
    AstVector<Pattern> branches(mr_);
    branches.push_back(std::move(first).value());
    while (AcceptKeyword("UNION")) {
      Result<Pattern> next = ParseGroupGraphPattern();
      if (!next.ok()) return next;
      branches.push_back(std::move(next).value());
    }
    return Pattern::Union(std::move(branches));
  }

  Result<Pattern> ParseSubSelect() {
    // allocate_shared keeps the control block and the subquery on the
    // parse resource: the scratch path stays heap-free, the heap path
    // is unchanged (the default resource is operator new).
    auto sub = std::allocate_shared<Query>(
        std::pmr::polymorphic_allocator<Query>(mr_), mr_);
    // Inherit the outer prologue; subqueries cannot re-declare prefixes.
    if (auto s = ParseSelectClause(*sub); !s.ok()) return s;
    if (auto s = ParseWhereClause(*sub); !s.ok()) return s;
    if (auto s = ParseSolutionModifier(*sub); !s.ok()) return s;
    if (IsKeyword("VALUES")) {
      Result<Pattern> values = ParseInlineData();
      if (!values.ok()) return values.status();
      sub->trailing_values = std::move(values).value();
    }
    sub->form = QueryForm::kSelect;
    Pattern p(mr_);
    p.kind = PatternKind::kSubSelect;
    p.subquery = std::move(sub);
    return p;
  }

  Result<Pattern> ParseInlineData() {
    Bump();  // VALUES
    Pattern p(mr_);
    p.kind = PatternKind::kValues;
    bool multi = false;
    if (Is(TokenType::kVar)) {
      p.values_vars.push_back(Term::Var(Cur().value, mr_));
      Bump();
    } else if (Accept(TokenType::kLParen)) {
      multi = true;
      while (Is(TokenType::kVar)) {
        p.values_vars.push_back(Term::Var(Cur().value, mr_));
        Bump();
      }
      if (auto s = Expect(TokenType::kRParen, "VALUES vars"); !s.ok()) {
        return s;
      }
    } else {
      return Err("expected variable(s) after VALUES");
    }
    if (auto s = Expect(TokenType::kLBrace, "VALUES data"); !s.ok()) return s;
    while (!Is(TokenType::kRBrace)) {
      if (Is(TokenType::kEof)) return Err("unterminated VALUES block");
      AstVector<std::optional<Term>> row(mr_);
      if (multi) {
        if (auto s = Expect(TokenType::kLParen, "VALUES row"); !s.ok()) {
          return s;
        }
        while (!Is(TokenType::kRParen)) {
          Result<std::optional<Term>> v = ParseDataBlockValue();
          if (!v.ok()) return v.status();
          row.push_back(std::move(v).value());
        }
        Bump();  // ')'
      } else {
        Result<std::optional<Term>> v = ParseDataBlockValue();
        if (!v.ok()) return v.status();
        row.push_back(std::move(v).value());
      }
      p.values_rows.push_back(std::move(row));
    }
    Bump();  // '}'
    return p;
  }

  Result<std::optional<Term>> ParseDataBlockValue() {
    if (AcceptKeyword("UNDEF")) return std::optional<Term>();
    Result<Term> t = ParseGraphTerm();
    if (!t.ok()) return t.status();
    return std::optional<Term>(std::move(t).value());
  }

  // --- Triples blocks ---------------------------------------------------------

  bool StartsTriple() const {
    switch (Cur().type) {
      case TokenType::kVar:
      case TokenType::kIriRef:
      case TokenType::kPName:
      case TokenType::kBlankLabel:
      case TokenType::kString:
      case TokenType::kInteger:
      case TokenType::kDecimal:
      case TokenType::kDouble:
      case TokenType::kLBracket:
      case TokenType::kLParen:
      case TokenType::kPlus:
      case TokenType::kMinus:
        return true;
      case TokenType::kIdent:
        return EqualsIgnoreCase(Cur().value, "true") ||
               EqualsIgnoreCase(Cur().value, "false");
      default:
        return false;
    }
  }

  Status ParseTriplesBlock(AstVector<Pattern>& out) {
    while (StartsTriple()) {
      if (auto s = ParseTriplesSameSubject(out); !s.ok()) return s;
      if (!Accept(TokenType::kDot)) break;
    }
    return Status::OK();
  }

  Status ParseTriplesTemplate(AstVector<TriplePattern>& out) {
    AstVector<Pattern> tmp(mr_);
    if (auto s = ParseTriplesBlock(tmp); !s.ok()) return s;
    for (Pattern& p : tmp) {
      if (p.kind == PatternKind::kTriple) {
        if (p.triple.has_path) {
          return Err("property path not allowed in CONSTRUCT template");
        }
        out.push_back(std::move(p.triple));
      }
    }
    return Status::OK();
  }

  Status ParseTriplesSameSubject(AstVector<Pattern>& out) {
    Result<Term> subject = ParseVarOrTermOrNode(out);
    if (!subject.ok()) return subject.status();
    // A bare blank-node property list `[ ... ]` may omit the property list.
    if (!StartsVerb()) {
      if (last_node_had_props_) return Status::OK();
      return Err("expected predicate");
    }
    return ParsePropertyList(subject.value(), out);
  }

  bool StartsVerb() const {
    switch (Cur().type) {
      case TokenType::kVar:
      case TokenType::kIriRef:
      case TokenType::kPName:
      case TokenType::kCaret:
      case TokenType::kBang:
      case TokenType::kLParen:
        return true;
      case TokenType::kIdent:
        return EqualsIgnoreCase(Cur().value, "a");
      default:
        return false;
    }
  }

  Status ParsePropertyList(const Term& subject, AstVector<Pattern>& out) {
    for (;;) {
      // Verb: variable or property path (a bare IRI is a trivial path).
      bool is_var_verb = Is(TokenType::kVar);
      Term var_verb(mr_);
      PathExpr path(mr_);
      if (is_var_verb) {
        var_verb = Term::Var(Cur().value, mr_);
        Bump();
      } else {
        Result<PathExpr> p = ParsePath();
        if (!p.ok()) return p.status();
        path = std::move(p).value();
      }
      // Object list. The subject and verb are shared across the list,
      // so copy-assign them into mr_-constructed triples (keeps the
      // copies on the parse resource).
      for (;;) {
        Result<Term> object = ParseVarOrTermOrNode(out);
        if (!object.ok()) return object.status();
        TriplePattern tp(mr_);
        tp.subject = subject;
        if (is_var_verb) {
          tp.predicate = var_verb;
        } else if (path.IsSimpleLink()) {
          tp.predicate = Term::Iri(path.iri, mr_);
        } else {
          tp.has_path = true;
          tp.path = path;
        }
        tp.object = std::move(object).value();
        out.push_back(Pattern::Triple(std::move(tp)));
        if (!Accept(TokenType::kComma)) break;
      }
      if (!Accept(TokenType::kSemicolon)) return Status::OK();
      // Trailing ';' before '.', '}' etc. is legal.
      while (Accept(TokenType::kSemicolon)) {
      }
      if (!StartsVerb()) return Status::OK();
    }
  }

  /// Parses a subject/object position: a variable, a graph term, a
  /// blank-node property list, or an RDF collection. Emits auxiliary
  /// triples for the latter two into `out`.
  Result<Term> ParseVarOrTermOrNode(AstVector<Pattern>& out) {
    // Blank-node property lists and collections nest through here
    // ("[[[[..." / "((((..."), so this is a recursion entry point too.
    DepthGuard depth(this);
    if (!depth.ok()) return DepthErr();
    last_node_had_props_ = false;
    if (Is(TokenType::kVar)) {
      Term t = Term::Var(Cur().value, mr_);
      Bump();
      return t;
    }
    if (Is(TokenType::kLBracket)) {
      Bump();
      Term blank = Term::Blank(FreshBlank(), mr_);
      if (Accept(TokenType::kRBracket)) {
        return blank;  // ANON
      }
      if (auto s = ParsePropertyList(blank, out); !s.ok()) return s;
      if (auto s = Expect(TokenType::kRBracket, "blank node property list");
          !s.ok()) {
        return s;
      }
      last_node_had_props_ = true;
      return blank;
    }
    if (Is(TokenType::kLParen)) {
      // RDF collection: ( e1 e2 ... ) desugars to a first/rest list.
      Bump();
      if (Accept(TokenType::kRParen)) return Term::Iri(kRdfNil, mr_);
      AstVector<Term> elements(mr_);
      while (!Is(TokenType::kRParen)) {
        if (Is(TokenType::kEof)) return Err("unterminated collection");
        Result<Term> e = ParseVarOrTermOrNode(out);
        if (!e.ok()) return e;
        elements.push_back(std::move(e).value());
      }
      Bump();  // ')'
      Term head = Term::Blank(FreshBlank(), mr_);
      Term cur = head;  // blank labels are SSO-small; copying is free
      for (size_t i = 0; i < elements.size(); ++i) {
        TriplePattern first(mr_);
        first.subject = cur;
        first.predicate = Term::Iri(kRdfFirst, mr_);
        first.object = std::move(elements[i]);
        out.push_back(Pattern::Triple(std::move(first)));
        Term next = (i + 1 == elements.size()) ? Term::Iri(kRdfNil, mr_)
                                               : Term::Blank(FreshBlank(), mr_);
        TriplePattern rest(mr_);
        rest.subject = cur;
        rest.predicate = Term::Iri(kRdfRest, mr_);
        rest.object = next;
        out.push_back(Pattern::Triple(std::move(rest)));
        cur = std::move(next);
      }
      last_node_had_props_ = true;
      return head;
    }
    return ParseGraphTerm();
  }

  Result<Term> ParseGraphTerm() {
    switch (Cur().type) {
      case TokenType::kIriRef:
      case TokenType::kPName:
        return ParseIri();
      case TokenType::kBlankLabel: {
        Term t = Term::Blank(Cur().value, mr_);
        Bump();
        return t;
      }
      case TokenType::kString:
        return ParseRdfLiteral();
      case TokenType::kInteger:
      case TokenType::kDecimal:
      case TokenType::kDouble:
      case TokenType::kPlus:
      case TokenType::kMinus:
        return ParseNumericLiteral();
      case TokenType::kIdent:
        if (EqualsIgnoreCase(Cur().value, "true") ||
            EqualsIgnoreCase(Cur().value, "false")) {
          Term t =
              Term::Literal(util::AsciiLower(Cur().value), kXsdBoolean, {},
                            mr_);
          Bump();
          return t;
        }
        {
          std::string msg("unexpected identifier '");
          msg.append(Cur().value).append("'");
          return Err(std::move(msg));
        }
      default:
        return Err(std::string("expected RDF term, found ") +
                   TokenTypeName(Cur().type));
    }
  }

  Result<Term> ParseRdfLiteral() {
    // Token storage outlives the parse; views suffice until the Term
    // factory copies onto mr_.
    std::string_view lexical = Cur().value;
    Bump();
    if (Is(TokenType::kLangTag)) {
      Term t = Term::Literal(lexical, {}, Cur().value, mr_);
      Bump();
      return t;
    }
    if (Accept(TokenType::kCaretCaret)) {
      Result<Term> dt = ParseIri();
      if (!dt.ok()) return dt;
      return Term::Literal(lexical, dt.value().value, {}, mr_);
    }
    return Term::Literal(lexical, {}, {}, mr_);
  }

  Result<Term> ParseNumericLiteral() {
    bool negative = false;
    if (Accept(TokenType::kPlus)) {
      negative = false;
    } else if (Accept(TokenType::kMinus)) {
      negative = true;
    }
    const char* datatype = nullptr;
    switch (Cur().type) {
      case TokenType::kInteger: datatype = kXsdInteger; break;
      case TokenType::kDecimal: datatype = kXsdDecimal; break;
      case TokenType::kDouble: datatype = kXsdDouble; break;
      default:
        return Err("expected numeric literal");
    }
    Term t(mr_);
    t.kind = rdf::TermKind::kLiteral;
    t.value.reserve(Cur().value.size() + 1);
    if (negative) t.value.push_back('-');
    t.value.append(Cur().value);
    t.datatype = datatype;
    Bump();
    return t;
  }

  Result<Term> ParseIri() {
    if (Is(TokenType::kIriRef)) {
      // Resolve against BASE if relative; a pragmatic check suffices here.
      Term t = Term::Iri(Cur().value, mr_);
      Bump();
      return t;
    }
    if (Is(TokenType::kPName)) {
      Result<AstString> full = ExpandPName(Cur().value);
      if (!full.ok()) return full.status();
      Bump();
      Term t(mr_);
      t.kind = rdf::TermKind::kIri;
      t.value = std::move(full).value();
      return t;
    }
    if (IsKeyword("a")) {
      Bump();
      return Term::Iri(kRdfType, mr_);
    }
    return Err(std::string("expected IRI, found ") +
               TokenTypeName(Cur().type));
  }

  Result<Term> ParseVarOrIri() {
    if (Is(TokenType::kVar)) {
      Term t = Term::Var(Cur().value, mr_);
      Bump();
      return t;
    }
    return ParseIri();
  }

  // --- Property paths ---------------------------------------------------------

  Result<PathExpr> ParsePath() { return ParsePathAlternative(); }

  Result<PathExpr> ParsePathAlternative() {
    Result<PathExpr> first = ParsePathSequence();
    if (!first.ok()) return first;
    if (!Is(TokenType::kPipe)) return first;
    AstVector<PathExpr> children(mr_);
    children.push_back(std::move(first).value());
    while (Accept(TokenType::kPipe)) {
      Result<PathExpr> next = ParsePathSequence();
      if (!next.ok()) return next;
      children.push_back(std::move(next).value());
    }
    return PathExpr::Nary(PathKind::kAlt, std::move(children));
  }

  Result<PathExpr> ParsePathSequence() {
    Result<PathExpr> first = ParsePathEltOrInverse();
    if (!first.ok()) return first;
    if (!Is(TokenType::kSlash)) return first;
    AstVector<PathExpr> children(mr_);
    children.push_back(std::move(first).value());
    while (Accept(TokenType::kSlash)) {
      Result<PathExpr> next = ParsePathEltOrInverse();
      if (!next.ok()) return next;
      children.push_back(std::move(next).value());
    }
    return PathExpr::Nary(PathKind::kSeq, std::move(children));
  }

  Result<PathExpr> ParsePathEltOrInverse() {
    if (Accept(TokenType::kCaret)) {
      Result<PathExpr> elt = ParsePathElt();
      if (!elt.ok()) return elt;
      return PathExpr::Unary(PathKind::kInverse, std::move(elt).value());
    }
    return ParsePathElt();
  }

  Result<PathExpr> ParsePathElt() {
    Result<PathExpr> primary = ParsePathPrimary();
    if (!primary.ok()) return primary;
    PathExpr p = std::move(primary).value();
    if (Accept(TokenType::kStar)) {
      return PathExpr::Unary(PathKind::kZeroOrMore, std::move(p));
    }
    if (Accept(TokenType::kPlus)) {
      return PathExpr::Unary(PathKind::kOneOrMore, std::move(p));
    }
    if (Accept(TokenType::kQuestion)) {
      return PathExpr::Unary(PathKind::kZeroOrOne, std::move(p));
    }
    return p;
  }

  Result<PathExpr> ParsePathPrimary() {
    DepthGuard depth(this);
    if (!depth.ok()) return DepthErr();
    if (Accept(TokenType::kBang)) {
      return ParsePathNegatedPropertySet();
    }
    if (Accept(TokenType::kLParen)) {
      Result<PathExpr> inner = ParsePath();
      if (!inner.ok()) return inner;
      if (auto s = Expect(TokenType::kRParen, "path group"); !s.ok()) {
        return s;
      }
      return inner;
    }
    Result<Term> iri = ParseIri();
    if (!iri.ok()) return iri.status();
    return PathExpr::Link(iri.value().value, mr_);
  }

  Result<PathExpr> ParsePathNegatedPropertySet() {
    AstVector<PathExpr> members(mr_);
    auto parse_one = [&]() -> Status {
      bool inverse = Accept(TokenType::kCaret);
      Result<Term> iri = ParseIri();
      if (!iri.ok()) return iri.status();
      PathExpr link = PathExpr::Link(iri.value().value, mr_);
      members.push_back(inverse ? PathExpr::Unary(PathKind::kInverse,
                                                  std::move(link))
                                : std::move(link));
      return Status::OK();
    };
    if (Accept(TokenType::kLParen)) {
      if (!Is(TokenType::kRParen)) {
        if (auto s = parse_one(); !s.ok()) return s;
        while (Accept(TokenType::kPipe)) {
          if (auto s = parse_one(); !s.ok()) return s;
        }
      }
      if (auto s = Expect(TokenType::kRParen, "negated property set");
          !s.ok()) {
        return s;
      }
    } else {
      if (auto s = parse_one(); !s.ok()) return s;
    }
    return PathExpr::Nary(PathKind::kNegated, std::move(members));
  }

  // --- Expressions -----------------------------------------------------------

  Result<Expr> ParseConstraint() {
    if (Is(TokenType::kLParen)) {
      Bump();
      Result<Expr> e = ParseExpression();
      if (!e.ok()) return e;
      if (auto s = Expect(TokenType::kRParen, "constraint"); !s.ok()) {
        return s;
      }
      return e;
    }
    // BuiltInCall or FunctionCall (IRI with arguments).
    return ParsePrimaryExpression();
  }

  Result<Expr> ParseExpression() { return ParseOrExpression(); }

  Result<Expr> ParseOrExpression() {
    Result<Expr> first = ParseAndExpression();
    if (!first.ok()) return first;
    if (!Is(TokenType::kOrOr)) return first;
    Expr e(mr_);
    e.kind = ExprKind::kOr;
    e.args.push_back(std::move(first).value());
    while (Accept(TokenType::kOrOr)) {
      Result<Expr> next = ParseAndExpression();
      if (!next.ok()) return next;
      e.args.push_back(std::move(next).value());
    }
    return e;
  }

  Result<Expr> ParseAndExpression() {
    Result<Expr> first = ParseRelationalExpression();
    if (!first.ok()) return first;
    if (!Is(TokenType::kAndAnd)) return first;
    Expr e(mr_);
    e.kind = ExprKind::kAnd;
    e.args.push_back(std::move(first).value());
    while (Accept(TokenType::kAndAnd)) {
      Result<Expr> next = ParseRelationalExpression();
      if (!next.ok()) return next;
      e.args.push_back(std::move(next).value());
    }
    return e;
  }

  Result<Expr> ParseRelationalExpression() {
    Result<Expr> lhs = ParseAdditiveExpression();
    if (!lhs.ok()) return lhs;
    const char* op = nullptr;
    switch (Cur().type) {
      case TokenType::kEq: op = "="; break;
      case TokenType::kNe: op = "!="; break;
      case TokenType::kLt: op = "<"; break;
      case TokenType::kGt: op = ">"; break;
      case TokenType::kLe: op = "<="; break;
      case TokenType::kGe: op = ">="; break;
      default: break;
    }
    if (op != nullptr) {
      Bump();
      Result<Expr> rhs = ParseAdditiveExpression();
      if (!rhs.ok()) return rhs;
      return Expr::Binary(ExprKind::kCompare, op, std::move(lhs).value(),
                          std::move(rhs).value());
    }
    bool negated = false;
    if (IsKeyword("NOT") && EqualsIgnoreCase(Ahead(1).value, "IN")) {
      Bump();
      negated = true;
    }
    if (AcceptKeyword("IN")) {
      Expr e(mr_);
      e.kind = negated ? ExprKind::kNotIn : ExprKind::kIn;
      e.args.push_back(std::move(lhs).value());
      if (auto s = Expect(TokenType::kLParen, "IN list"); !s.ok()) return s;
      if (!Is(TokenType::kRParen)) {
        for (;;) {
          Result<Expr> item = ParseExpression();
          if (!item.ok()) return item;
          e.args.push_back(std::move(item).value());
          if (!Accept(TokenType::kComma)) break;
        }
      }
      if (auto s = Expect(TokenType::kRParen, "IN list"); !s.ok()) return s;
      return e;
    }
    return lhs;
  }

  Result<Expr> ParseAdditiveExpression() {
    Result<Expr> lhs = ParseMultiplicativeExpression();
    if (!lhs.ok()) return lhs;
    Expr acc = std::move(lhs).value();
    for (;;) {
      const char* op = nullptr;
      if (Is(TokenType::kPlus)) {
        op = "+";
      } else if (Is(TokenType::kMinus)) {
        op = "-";
      } else {
        return acc;
      }
      Bump();
      Result<Expr> rhs = ParseMultiplicativeExpression();
      if (!rhs.ok()) return rhs;
      acc = Expr::Binary(ExprKind::kArith, op, std::move(acc),
                         std::move(rhs).value());
    }
  }

  Result<Expr> ParseMultiplicativeExpression() {
    Result<Expr> lhs = ParseUnaryExpression();
    if (!lhs.ok()) return lhs;
    Expr acc = std::move(lhs).value();
    for (;;) {
      const char* op = nullptr;
      if (Is(TokenType::kStar)) {
        op = "*";
      } else if (Is(TokenType::kSlash)) {
        op = "/";
      } else {
        return acc;
      }
      Bump();
      Result<Expr> rhs = ParseUnaryExpression();
      if (!rhs.ok()) return rhs;
      acc = Expr::Binary(ExprKind::kArith, op, std::move(acc),
                         std::move(rhs).value());
    }
  }

  Result<Expr> ParseUnaryExpression() {
    if (Accept(TokenType::kBang)) {
      Result<Expr> inner = ParseUnaryExpression();
      if (!inner.ok()) return inner;
      Expr e(mr_);
      e.kind = ExprKind::kNot;
      e.args.push_back(std::move(inner).value());
      return e;
    }
    if (Accept(TokenType::kMinus)) {
      Result<Expr> inner = ParseUnaryExpression();
      if (!inner.ok()) return inner;
      Expr e(mr_);
      e.kind = ExprKind::kUnaryMinus;
      e.args.push_back(std::move(inner).value());
      return e;
    }
    if (Accept(TokenType::kPlus)) {
      Result<Expr> inner = ParseUnaryExpression();
      if (!inner.ok()) return inner;
      Expr e(mr_);
      e.kind = ExprKind::kUnaryPlus;
      e.args.push_back(std::move(inner).value());
      return e;
    }
    return ParsePrimaryExpression();
  }

  bool IsAggregateName(std::string_view name) const {
    return EqualsIgnoreCase(name, "COUNT") || EqualsIgnoreCase(name, "SUM") ||
           EqualsIgnoreCase(name, "MIN") || EqualsIgnoreCase(name, "MAX") ||
           EqualsIgnoreCase(name, "AVG") ||
           EqualsIgnoreCase(name, "SAMPLE") ||
           EqualsIgnoreCase(name, "GROUP_CONCAT");
  }

  Result<Expr> ParsePrimaryExpression() {
    DepthGuard depth(this);
    if (!depth.ok()) return DepthErr();
    if (Is(TokenType::kLParen)) {
      Bump();
      Result<Expr> e = ParseExpression();
      if (!e.ok()) return e;
      if (auto s = Expect(TokenType::kRParen, "bracketed expression");
          !s.ok()) {
        return s;
      }
      return e;
    }
    if (Is(TokenType::kVar)) {
      Expr e = Expr::MakeVar(Cur().value, mr_);
      Bump();
      return e;
    }
    if (Is(TokenType::kString)) {
      Result<Term> t = ParseRdfLiteral();
      if (!t.ok()) return t.status();
      return Expr::MakeTerm(std::move(t).value());
    }
    if (Is(TokenType::kInteger) || Is(TokenType::kDecimal) ||
        Is(TokenType::kDouble)) {
      Result<Term> t = ParseNumericLiteral();
      if (!t.ok()) return t.status();
      return Expr::MakeTerm(std::move(t).value());
    }
    if (Is(TokenType::kIdent)) {
      // A view is enough: token storage outlives every use below.
      const std::string_view name = Cur().value;
      if (EqualsIgnoreCase(name, "true") || EqualsIgnoreCase(name, "false")) {
        Bump();
        return Expr::MakeTerm(
            Term::Literal(util::AsciiLower(name), kXsdBoolean, {}, mr_));
      }
      if (EqualsIgnoreCase(name, "EXISTS")) {
        Bump();
        Result<Pattern> p = ParseGroupGraphPattern();
        if (!p.ok()) return p.status();
        Expr e(mr_);
        e.kind = ExprKind::kExists;
        e.pattern = std::allocate_shared<Pattern>(
            std::pmr::polymorphic_allocator<Pattern>(mr_),
            std::move(p).value());
        return e;
      }
      if (EqualsIgnoreCase(name, "NOT") &&
          EqualsIgnoreCase(Ahead(1).value, "EXISTS")) {
        Bump();
        Bump();
        Result<Pattern> p = ParseGroupGraphPattern();
        if (!p.ok()) return p.status();
        Expr e(mr_);
        e.kind = ExprKind::kNotExists;
        e.pattern = std::allocate_shared<Pattern>(
            std::pmr::polymorphic_allocator<Pattern>(mr_),
            std::move(p).value());
        return e;
      }
      if (IsAggregateName(name)) return ParseAggregate();
      if (Ahead(1).Is(TokenType::kLParen)) return ParseFunctionCall();
      std::string msg("unexpected identifier '");
      msg.append(name).append("' in expression");
      return Err(std::move(msg));
    }
    if (Is(TokenType::kIriRef) || Is(TokenType::kPName)) {
      Result<Term> iri = ParseIri();
      if (!iri.ok()) return iri.status();
      if (Is(TokenType::kLParen)) {
        // Extension function call: <iri>(args).
        Result<AstVector<Expr>> args = ParseArgList();
        if (!args.ok()) return args.status();
        return Expr::Call(iri.value().value, std::move(args).value());
      }
      return Expr::MakeTerm(std::move(iri).value());
    }
    return Err(std::string("expected expression, found ") +
               TokenTypeName(Cur().type));
  }

  Result<Expr> ParseAggregate() {
    Expr e(mr_);
    e.kind = ExprKind::kAggregate;
    // Aggregate names fit SSO, so the upper-cased temporary is free.
    e.op = util::AsciiUpper(Cur().value);
    Bump();
    if (auto s = Expect(TokenType::kLParen, "aggregate"); !s.ok()) return s;
    if (AcceptKeyword("DISTINCT")) e.distinct = true;
    if (e.op == "COUNT" && Accept(TokenType::kStar)) {
      e.star = true;
    } else {
      Result<Expr> arg = ParseExpression();
      if (!arg.ok()) return arg;
      e.args.push_back(std::move(arg).value());
    }
    if (e.op == "GROUP_CONCAT" && Accept(TokenType::kSemicolon)) {
      if (!AcceptKeyword("SEPARATOR")) {
        return Err("expected SEPARATOR in GROUP_CONCAT");
      }
      if (auto s = Expect(TokenType::kEq, "GROUP_CONCAT separator"); !s.ok()) {
        return s;
      }
      if (!Is(TokenType::kString)) return Err("expected separator string");
      e.separator = Cur().value;
      Bump();
    }
    if (auto s = Expect(TokenType::kRParen, "aggregate"); !s.ok()) return s;
    return e;
  }

  Result<Expr> ParseFunctionCall() {
    std::string name = util::AsciiUpper(Cur().value);
    Bump();
    Result<AstVector<Expr>> args = ParseArgList();
    if (!args.ok()) return args.status();
    return Expr::Call(name, std::move(args).value());
  }

  Result<AstVector<Expr>> ParseArgList() {
    if (auto s = Expect(TokenType::kLParen, "argument list"); !s.ok()) {
      return s;
    }
    AstVector<Expr> args(mr_);
    AcceptKeyword("DISTINCT");  // tolerated in e.g. custom aggregates
    if (!Is(TokenType::kRParen)) {
      for (;;) {
        Result<Expr> e = ParseExpression();
        if (!e.ok()) return e.status();
        args.push_back(std::move(e).value());
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (auto s = Expect(TokenType::kRParen, "argument list"); !s.ok()) {
      return s;
    }
    return args;
  }

  const std::vector<Token>& tokens_;
  size_t idx_ = 0;
  std::pmr::memory_resource* mr_;
  util::StringInterner* pname_cache_;
  /// PREFIX declarations of this query, as views into token storage.
  /// A handful per query at most, so a reverse linear scan beats a map
  /// (and lives on the parse resource, not the heap).
  AstVector<std::pair<std::string_view, std::string_view>> local_prefixes_;
  int blank_counter_ = 0;
  bool last_node_had_props_ = false;
  /// Current nesting depth across the recursive productions (see
  /// DepthGuard / Parser::kMaxRecursionDepth).
  int depth_ = 0;
};

}  // namespace

Result<Query> Parser::Parse(std::string_view text) const {
  // The token stream (and `text`, which its views point into) must stay
  // alive for the whole parse; the AST copies what it keeps.
  Result<TokenStream> tokens = Lexer::Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  Impl impl(tokens.value(), std::pmr::get_default_resource(), nullptr);
  return impl.ParseQueryUnit();
}

Result<Query> Parser::Parse(std::string_view text,
                            ParserScratch& scratch) const {
  Status s = Lexer::TokenizeInto(text, scratch.tokens);
  if (!s.ok()) return s;
  // The AST copies every token value it keeps onto the arena, so the
  // token buffer can be clobbered by the next parse on this scratch
  // while earlier Queries stay valid (until scratch.Reset()).
  Impl impl(scratch.tokens, &scratch.arena, &scratch.pnames);
  return impl.ParseQueryUnit();
}

bool Parser::IsValid(std::string_view text) const {
  return Parse(text).ok();
}

Result<Query> ParseQuery(std::string_view text) {
  Parser parser;
  return parser.Parse(text);
}

}  // namespace sparqlog::sparql
