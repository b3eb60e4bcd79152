#ifndef SPARQLOG_TESTING_REFERENCE_FRAGMENTS_H_
#define SPARQLOG_TESTING_REFERENCE_FRAGMENTS_H_

#include <set>
#include <string>
#include <vector>

#include "analysis/features.h"
#include "fragments/fragment.h"
#include "sparql/ast.h"

namespace sparqlog::testing::reference {

// ---------------------------------------------------------------------------
// The string-set fragment classification (Section 5.2), retained
// verbatim (modulo namespaces) as the differential oracle for the
// variable-id rewrite in src/fragments/ and analysis/projection: one
// std::set<std::string> per algebra node, pattern-tree node and filter,
// a unique_ptr algebra translated once for the well-designedness check
// and again for the pattern tree. CheckAnalysisEquivalence compares
// every FragmentClass field and ClassifyProjection with these, on every
// unique paper-corpus query and every fuzzed query of fuzz phase 5. Do
// not "improve" this code — its value is that it stays exactly what
// shipped before the rewrite.
// ---------------------------------------------------------------------------

/// Pre-change fragments::ClassifyFragment.
fragments::FragmentClass ClassifyFragment(const sparql::Query& q);

/// Pre-change fragments::IsSimpleFilter (Definition 5.2).
bool IsSimpleFilter(const sparql::Expr& e);

/// A node of a well-designed pattern tree (Example 5.4 of the paper,
/// after Letelier et al.): every node carries a conjunctive query; a
/// child is an OPTIONAL extension of its parent.
struct PatternTreeNode {
  std::vector<const sparql::TriplePattern*> triples;
  std::vector<const sparql::Expr*> filters;
  std::vector<PatternTreeNode> children;

  /// Variables of this node's CQ (triples only).
  std::set<std::string> Vars() const;
};

/// Result of building a pattern tree from an AOF pattern.
struct PatternTreeResult {
  /// Construction succeeded (body was an AOF pattern).
  bool ok = false;
  PatternTreeNode root;
  /// Max number of common variables between a node and a child
  /// (Example 5.4: both T1 and T2 have interface width one).
  int interface_width = 0;
  /// For each variable, the nodes containing it form a connected subtree
  /// (Barcelo et al.'s well-designedness of pattern trees).
  bool connected_variables = false;
};

/// Builds the pattern tree of an AOF pattern body via OPT-normal form:
/// the rewrite rules ((P1 OPT P2) AND P3) => ((P1 AND P3) OPT P2) and
/// (P1 AND (P2 OPT P3)) => ((P1 AND P2) OPT P3) (sound for well-designed
/// patterns), followed by the Currying encoding.
PatternTreeResult BuildPatternTree(const sparql::Pattern& body);

/// Checks Definition 5.3 (well-designedness) directly on the SPARQL
/// algebra tree of the AOF pattern: for every LeftJoin(L, R), the
/// variables of vars(R) \ vars(L) occur nowhere outside that subtree.
/// Returns false for non-AOF bodies.
bool IsWellDesigned(const sparql::Pattern& body);

/// Pre-change analysis::ClassifyProjection (paper Section 4.4).
analysis::ProjectionUse ClassifyProjection(const sparql::Query& q);

}  // namespace sparqlog::testing::reference

#endif  // SPARQLOG_TESTING_REFERENCE_FRAGMENTS_H_
