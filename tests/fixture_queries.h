#ifndef SPARQLOG_TESTS_FIXTURE_QUERIES_H_
#define SPARQLOG_TESTS_FIXTURE_QUERIES_H_

#include <string>
#include <vector>

namespace sparqlog::fixtures {

/// Hand-written queries covering the lexer's and serializer's corner
/// cases: escaped, long and typed literals, prefixed names, signed
/// numerics, property paths, blank nodes and collections, aggregates,
/// subqueries, VALUES, FILTER and EXISTS.
inline std::vector<std::string> FixtureQueries() {
  return {
      // Plain, escaped, long, and language/datatype literals.
      "SELECT * WHERE { ?s ?p \"plain\" }",
      "SELECT * WHERE { ?x <p> \"a\\\"b\\\\c\\nd\\te\" }",
      "SELECT * WHERE { ?x <p> \"\"\"long\nstring\nliteral\"\"\" }",
      "SELECT * WHERE { ?x <p> '''it''s long''' }",
      "SELECT * WHERE { ?x <p> \"\" }",
      "SELECT * WHERE { ?x <p> \"chat\"@fr ; <q> \"1\"^^xsd:int }",
      // Prefixed names, incl. dots, percent escapes, default namespace.
      "PREFIX ex: <http://e/> SELECT * WHERE { ex:a.b ex:p%20q ?o }",
      "SELECT ?x WHERE { ?x rdf:type dbo:Person }",
      "PREFIX : <http://d/> SELECT * WHERE { :s :p :o }",
      // Numeric literals with signs and exponents.
      "SELECT * WHERE { ?x <p> -4.5 ; <q> +2 ; <r> 1e6 ; <s> .5 }",
      // Property paths.
      "SELECT * WHERE { ?a <p>/<q>* ?b }",
      "SELECT * WHERE { ?a !(<p>|^<q>) ?b }",
      "SELECT * WHERE { ?a (^<p>)+ ?b }",
      // Blank nodes, collections, IRIs.
      "SELECT * WHERE { _:b1 <p> [ <q> ?v ] . ?l <r> (1 2 3) }",
      "ASK { <http://example.org/a#b> a <http://t/> }",
      // Aggregates, HAVING, subqueries, VALUES, FILTER.
      "SELECT (GROUP_CONCAT(DISTINCT ?n; SEPARATOR=\", \") AS ?ns) "
      "WHERE { ?x <name> ?n } GROUP BY ?x HAVING (COUNT(*) > 2)",
      "SELECT ?x WHERE { ?x <p> ?y { SELECT ?y WHERE { ?y <q> ?z } "
      "LIMIT 3 } } ORDER BY DESC(?x) LIMIT 10 OFFSET 5",
      "SELECT * WHERE { VALUES (?v) { (<x>) (UNDEF) } "
      "FILTER(?v IN (<x>, <y>) && !BOUND(?u) || STRLEN(STR(?v)) >= 3) }",
      "SELECT * WHERE { ?x <p> ?y FILTER NOT EXISTS { ?x <q> ?y } }",
  };
}

}  // namespace sparqlog::fixtures

#endif  // SPARQLOG_TESTS_FIXTURE_QUERIES_H_
