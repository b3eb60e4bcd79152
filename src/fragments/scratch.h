#ifndef SPARQLOG_FRAGMENTS_SCRATCH_H_
#define SPARQLOG_FRAGMENTS_SCRATCH_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace sparqlog::fragments {

/// Dense ids for the distinct variables of one query, in first-seen
/// order (SNIPPETS.md 1: a query carries its variable names once, and a
/// set of variables is a set of indexes). Open addressing over a
/// recycled slot table whose Clear() is an epoch bump, so steady-state
/// interning allocates nothing.
class VariableTable {
 public:
  /// Returns the id of variable `name` (without '?'), assigning the next
  /// id if unseen. The name's bytes are retained until Clear(); they
  /// live in the query AST being classified.
  int Intern(std::string_view name);

  int size() const { return static_cast<int>(names_.size()); }

  /// Forgets all variables but keeps table capacity.
  void Clear();

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t epoch = 0;  // occupied iff == current table epoch
    int id = 0;
  };
  void Grow();

  std::vector<Slot> slots_;             // power-of-two open addressing
  std::vector<std::string_view> names_;  // id -> name
  uint32_t epoch_ = 1;                  // slots start at 0 = never used
};

/// One node of the flat SPARQL algebra of an AOF body: a BGP, or a Join
/// or LeftJoin (OPTIONAL) of two earlier nodes. Operands always precede
/// the node that uses them. Its variable sets live in
/// FragmentScratch::masks.
struct AlgebraNode {
  enum class Kind : uint8_t { kBgp, kJoin, kLeftJoin };
  Kind kind = Kind::kBgp;
  bool has_triples = false;  // kBgp
  bool has_filters = false;
  int left = -1, right = -1;  // operands of kJoin / kLeftJoin
  /// Pattern-tree node this algebra node belongs to; -1 until reached
  /// from the root (merged-away BGPs are never reached).
  int tree_node = -1;
};

/// Recycled working state for fragment classification: the variable
/// table, the flat algebra of the body, and every variable set as a
/// bitset of `words` 64-bit words (one word per 64 variables, fixed
/// once per query). One instance per CorpusAnalyzer (inside
/// corpus::AnalysisScratch); every container is cleared, not
/// reallocated, between queries.
struct FragmentScratch {
  VariableTable vars;
  int words = 1;
  std::vector<AlgebraNode> nodes;
  /// kMasksPerNode bitsets per algebra node (see pattern_tree.cc).
  std::vector<uint64_t> masks;
  /// Pattern tree: parent per node (-1 for the root) and the variables
  /// of each node's triples.
  std::vector<int> tree_parent;
  std::vector<uint64_t> tree_masks;
};

}  // namespace sparqlog::fragments

#endif  // SPARQLOG_FRAGMENTS_SCRATCH_H_
