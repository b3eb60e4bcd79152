#ifndef SPARQLOG_SPARQL_PARSER_H_
#define SPARQLOG_SPARQL_PARSER_H_

#include <string_view>
#include <vector>

#include "sparql/ast.h"
#include "sparql/lexer.h"
#include "sparql/token.h"
#include "util/arena.h"
#include "util/result.h"

namespace sparqlog::sparql {

/// Reusable per-worker parse state: the arena that owns all AST node
/// storage, the recycled token buffer, and the prefixed-name expansion
/// cache. One warm scratch makes `Parser::Parse(text, scratch)` run
/// with zero heap allocations on typical log lines.
///
/// Lifetime contract (see DESIGN.md "Parser memory discipline"): every
/// `Query` returned by a scratch-parse lives on `arena` and dies at
/// `Reset()`. Reset is explicit — a pipeline worker parses a whole
/// chunk into one scratch, hands the batches downstream, and resets
/// once nothing references the chunk's ASTs. The pname cache is *not*
/// reset (its cross-line hits are the point); it flushes itself on its
/// own storage budget. Every parser expands names against the same
/// default prefix table, so one scratch may serve any parser.
struct ParserScratch {
  util::ArenaResource arena;
  TokenStream tokens;
  util::StringInterner pnames;
  /// The parser's child stack: members of open groups wait here until
  /// the group closes and takes them as one exact-size array. Empty
  /// between parses; only its capacity is reused.
  std::vector<Pattern> patterns;

  /// Invalidates every Query previously parsed into this scratch.
  void Reset() { arena.Reset(); }
};

/// Recursive-descent parser for SPARQL 1.1 queries.
///
/// Covers the query subset of the SPARQL 1.1 grammar: the four query
/// forms, dataset clauses, group graph patterns with triples blocks
/// (including `;`/`,` abbreviations, blank-node property lists, and RDF
/// collections), FILTER/OPTIONAL/UNION/MINUS/GRAPH/SERVICE/BIND/VALUES,
/// subqueries, property paths, expressions with aggregates, and all
/// solution modifiers. Update operations are rejected with
/// `StatusCode::kUnsupported` (the paper's log-cleaning step drops them).
///
/// The parser holds no state: prefixed names resolve against the query's
/// own PREFIX declarations, then against one process-wide table of the
/// prefixes public endpoints pre-declare (rdf, rdfs, owl, xsd, foaf, dc,
/// dbo, wd, ...; most endpoints, e.g. DBpedia's Virtuoso, inject such a
/// set and logged queries rely on it). Any other prefix fails the parse.
class Parser {
 public:
  /// Maximum nesting depth of the recursive-descent grammar (group
  /// graph patterns, property-path groups, parenthesized/EXISTS
  /// expressions and blank-node property lists combined). A log line
  /// like "ASK {{{{...}}}}" otherwise recurses once per brace and
  /// overruns the C++ stack — a crash no try/catch can contain.
  /// Exceeding the cap is a parse error (kInvalidArgument), so the line
  /// lands in the malformed bucket like any other unparseable entry.
  /// Generous for real queries: the corpus' deepest observed nesting is
  /// far below 100.
  static constexpr int kMaxRecursionDepth = 128;

  /// Parses a complete query onto the default heap resource. Returns
  /// InvalidArgument on syntax errors, Unsupported for SPARQL Update
  /// requests. This path stays the allocation-per-node reference
  /// implementation (the fuzz harness diffs it against the scratch
  /// path below).
  util::Result<Query> Parse(std::string_view text) const;

  /// Arena-pooled parse: the returned Query's entire node storage lives
  /// on `scratch.arena` and is valid until `scratch.Reset()`. Copying
  /// the Query (plain copy construction) detaches it onto the heap.
  util::Result<Query> Parse(std::string_view text,
                            ParserScratch& scratch) const;

  /// True iff `text` parses (the paper's "Valid" criterion, standing in
  /// for Apache Jena 3.0.1).
  bool IsValid(std::string_view text) const;
};

/// Convenience one-shot parse.
util::Result<Query> ParseQuery(std::string_view text);

}  // namespace sparqlog::sparql

#endif  // SPARQLOG_SPARQL_PARSER_H_
