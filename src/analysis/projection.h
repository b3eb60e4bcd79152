#ifndef SPARQLOG_ANALYSIS_PROJECTION_H_
#define SPARQLOG_ANALYSIS_PROJECTION_H_

#include "analysis/features.h"
#include "fragments/scratch.h"
#include "sparql/ast.h"

namespace sparqlog::analysis {

/// Decides whether `q` uses projection, following the paper's reading of
/// SPARQL recommendation Section 18.2.1 (paper Section 4.4):
///
///  * `SELECT *` never projects.
///  * An explicit SELECT list projects iff it omits at least one in-scope
///    variable of the pattern.
///  * ASK projects iff the pattern mentions at least one variable (most
///    ASK queries test a concrete triple and therefore do not project).
///  * CONSTRUCT / DESCRIBE are counted as not using projection.
///  * Queries whose classification is ambiguous because of BIND or
///    `(expr AS ?v)` return kIndeterminate.
///
/// `vars` is recycled working state: the selected variables take the
/// first ids, so an in-scope variable is unselected iff its id is not
/// below their count.
ProjectionUse ClassifyProjection(const sparql::Query& q,
                                 fragments::VariableTable& vars);

}  // namespace sparqlog::analysis

#endif  // SPARQLOG_ANALYSIS_PROJECTION_H_
