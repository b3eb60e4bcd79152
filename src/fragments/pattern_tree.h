#ifndef SPARQLOG_FRAGMENTS_PATTERN_TREE_H_
#define SPARQLOG_FRAGMENTS_PATTERN_TREE_H_

#include "fragments/scratch.h"
#include "sparql/ast.h"

namespace sparqlog::fragments {

/// What the fragment classes need from an AOF body's algebra and its
/// well-designed pattern tree (Example 5.4 of the paper, after Letelier
/// et al.: every node carries a conjunctive query, a child is an
/// OPTIONAL extension of its parent).
struct AofStructure {
  /// The body is an And/Opt/Filter pattern (anything besides triples
  /// without paths, groups, filters without EXISTS and OPTIONAL is not).
  bool ok = false;
  /// Definition 5.3: for every LeftJoin(L, R) of the algebra, the
  /// variables of vars(R) \ vars(L) occur nowhere outside that subtree.
  bool well_designed = false;
  /// Max number of common triple variables between a pattern-tree node
  /// and a child (Example 5.4: both T1 and T2 have interface width one).
  int interface_width = 0;
  /// For each variable, the pattern-tree nodes whose triples mention it
  /// form a connected subtree (Barcelo et al.'s well-designedness of
  /// pattern trees).
  bool connected_variables = false;
};

/// Translates `body` to the SPARQL algebra once, as a flat node array in
/// `scratch` with one variable bitset per node over the query's dense
/// variable ids, and reads well-designedness, interface width and
/// variable connectivity off the bitsets. The pattern tree is the one of
/// OPT-normal form — ((P1 OPT P2) AND P3) => ((P1 AND P3) OPT P2) and
/// (P1 AND (P2 OPT P3)) => ((P1 AND P2) OPT P3), sound for well-designed
/// patterns — without materializing it: a Join's operands share their
/// parent's tree node, a LeftJoin's right operand starts a child node.
AofStructure AnalyzeAof(const sparql::Pattern& body, FragmentScratch& scratch);

/// True iff the expression embeds a graph pattern (EXISTS / NOT
/// EXISTS), which takes a filter out of the AOF fragment.
bool ExprUsesPatterns(const sparql::Expr& e);

}  // namespace sparqlog::fragments

#endif  // SPARQLOG_FRAGMENTS_PATTERN_TREE_H_
