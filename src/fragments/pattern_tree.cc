#include "fragments/pattern_tree.h"

#include <algorithm>
#include <bit>

namespace sparqlog::fragments {

using sparql::Expr;
using sparql::ExprKind;
using sparql::Pattern;
using sparql::PatternKind;

namespace {

using Kind = AlgebraNode::Kind;

/// The bitsets of algebra node i, each FragmentScratch::words long, at
/// masks[(i * kMasksPerNode + k) * words].
enum Mask : size_t {
  kOwn,      // variables of the node's own triples and filters
  kTriples,  // variables of the node's own triples (kBgp only)
  kSubtree,  // vars(P): every triple and filter in the subtree
  kOutside,  // every triple and filter outside the subtree
  kMasksPerNode,
};

uint64_t* NodeMask(FragmentScratch& s, int node, Mask k) {
  return s.masks.data() +
         (static_cast<size_t>(node) * kMasksPerNode + k) *
             static_cast<size_t>(s.words);
}

uint64_t* TreeMask(FragmentScratch& s, int tree_node) {
  return s.tree_masks.data() +
         static_cast<size_t>(tree_node) * static_cast<size_t>(s.words);
}

void OrInto(uint64_t* to, const uint64_t* from, int words) {
  for (int k = 0; k < words; ++k) to[k] |= from[k];
}

int NewNode(FragmentScratch& s, Kind kind, int left = -1, int right = -1) {
  s.nodes.push_back(AlgebraNode{kind, false, false, left, right, -1});
  s.masks.resize(s.masks.size() +
                     kMasksPerNode * static_cast<size_t>(s.words),
                 0);
  return static_cast<int>(s.nodes.size()) - 1;
}

int NewTreeNode(FragmentScratch& s, int parent) {
  s.tree_parent.push_back(parent);
  s.tree_masks.resize(s.tree_masks.size() + static_cast<size_t>(s.words), 0);
  return static_cast<int>(s.tree_parent.size()) - 1;
}

/// ORs the variables of `atom` (a triple pattern or a filter expression)
/// into `mask`.
template <typename Atom>
void AddVariables(VariableTable& vars, const Atom& atom, uint64_t* mask) {
  sparql::ForEachVariable(atom, [&vars, mask](std::string_view v) {
    const int id = vars.Intern(v);
    mask[id >> 6] |= uint64_t{1} << (id & 63);
    return true;
  });
}

/// Merges BGPs; Join otherwise. An empty BGP is the identity.
int Join(FragmentScratch& s, int a, int b) {
  AlgebraNode& na = s.nodes[static_cast<size_t>(a)];
  const AlgebraNode& nb = s.nodes[static_cast<size_t>(b)];
  if (na.kind == Kind::kBgp && !na.has_triples && !na.has_filters) return b;
  if (na.kind == Kind::kBgp && nb.kind == Kind::kBgp && !na.has_filters &&
      !nb.has_filters) {
    na.has_triples = na.has_triples || nb.has_triples;
    OrInto(NodeMask(s, a, kOwn), NodeMask(s, b, kOwn), s.words);
    OrInto(NodeMask(s, a, kTriples), NodeMask(s, b, kTriples), s.words);
    return a;
  }
  return NewNode(s, Kind::kJoin, a, b);
}

/// Translates an AOF group pattern into the algebra, per the standard
/// translation of group graph patterns; returns the node index, or -1 if
/// the body is not AOF.
int Translate(const Pattern& p, FragmentScratch& s) {
  if (p.kind() == PatternKind::kTriple) {
    if (p.triple().has_path()) return -1;
    const int n = NewNode(s, Kind::kBgp);
    s.nodes[static_cast<size_t>(n)].has_triples = true;
    AddVariables(s.vars, p.triple(), NodeMask(s, n, kTriples));
    std::copy_n(NodeMask(s, n, kTriples), s.words, NodeMask(s, n, kOwn));
    return n;
  }
  if (p.kind() != PatternKind::kGroup) return -1;

  int acc = NewNode(s, Kind::kBgp);  // empty BGP
  for (const Pattern& c : p.children()) {
    switch (c.kind()) {
      case PatternKind::kTriple:
      case PatternKind::kGroup: {
        const int t = Translate(c, s);
        if (t < 0) return -1;
        acc = Join(s, acc, t);
        break;
      }
      case PatternKind::kFilter:
        break;  // below: filters of a group apply to the whole group
      case PatternKind::kOptional: {
        const int body = Translate(c.children()[0], s);
        if (body < 0) return -1;
        acc = NewNode(s, Kind::kLeftJoin, acc, body);
        break;
      }
      default:
        return -1;  // not an AOF pattern
    }
  }
  for (const Pattern& c : p.children()) {
    if (c.kind() != PatternKind::kFilter) continue;
    if (ExprUsesPatterns(c.expr())) return -1;
    s.nodes[static_cast<size_t>(acc)].has_filters = true;
    AddVariables(s.vars, c.expr(), NodeMask(s, acc, kOwn));
  }
  return acc;
}

}  // namespace

bool ExprUsesPatterns(const Expr& e) {
  if (e.kind == ExprKind::kExists || e.kind == ExprKind::kNotExists) {
    return true;
  }
  for (const Expr& a : e.args) {
    if (ExprUsesPatterns(a)) return true;
  }
  return false;
}

AofStructure AnalyzeAof(const Pattern& body, FragmentScratch& s) {
  AofStructure out;
  // Dense ids first, so every bitset has its final width.
  s.vars.Clear();
  sparql::ForEachVariable(body, [&s](std::string_view v) {
    s.vars.Intern(v);
    return true;
  });
  s.words = std::max(1, (s.vars.size() + 63) / 64);
  const int w = s.words;
  s.nodes.clear();
  s.masks.clear();
  const int root = Translate(body, s);
  if (root < 0) return out;
  out.ok = true;

  // vars(P) bottom-up: operands precede the node that uses them.
  for (size_t i = 0; i < s.nodes.size(); ++i) {
    const AlgebraNode& n = s.nodes[i];
    const int node = static_cast<int>(i);
    uint64_t* sub = NodeMask(s, node, kSubtree);
    std::copy_n(NodeMask(s, node, kOwn), w, sub);
    if (n.kind == Kind::kBgp) continue;
    OrInto(sub, NodeMask(s, n.left, kSubtree), w);
    OrInto(sub, NodeMask(s, n.right, kSubtree), w);
  }

  // Top-down from the root, which no operand index exceeds: the
  // variables outside each subtree, Definition 5.3 at each
  // LeftJoin(L, R) — vars(R) \ vars(L) must not occur outside it — and
  // the pattern-tree node of every reached algebra node.
  s.tree_parent.clear();
  s.tree_masks.clear();
  s.nodes[static_cast<size_t>(root)].tree_node = NewTreeNode(s, -1);
  out.well_designed = true;
  for (int i = root; i >= 0; --i) {
    const AlgebraNode& n = s.nodes[static_cast<size_t>(i)];
    if (n.tree_node < 0) continue;  // merged away: not in the algebra
    if (n.kind == Kind::kBgp) {
      OrInto(TreeMask(s, n.tree_node), NodeMask(s, i, kTriples), w);
      continue;
    }
    const uint64_t* outside = NodeMask(s, i, kOutside);
    const uint64_t* own = NodeMask(s, i, kOwn);
    const uint64_t* left = NodeMask(s, n.left, kSubtree);
    const uint64_t* right = NodeMask(s, n.right, kSubtree);
    uint64_t* left_out = NodeMask(s, n.left, kOutside);
    uint64_t* right_out = NodeMask(s, n.right, kOutside);
    const bool left_join = n.kind == Kind::kLeftJoin;
    for (int k = 0; k < w; ++k) {
      const uint64_t base = outside[k] | own[k];
      left_out[k] = base | right[k];
      right_out[k] = base | left[k];
      if (left_join && (right[k] & ~left[k] & outside[k]) != 0) {
        out.well_designed = false;
      }
    }
    // A Join's operands share their roots (OPT-normal form); a
    // LeftJoin's right operand is a child of its left operand's root.
    s.nodes[static_cast<size_t>(n.left)].tree_node = n.tree_node;
    s.nodes[static_cast<size_t>(n.right)].tree_node =
        left_join ? NewTreeNode(s, n.tree_node) : n.tree_node;
  }

  // A variable's tree nodes are connected iff exactly one of them has a
  // parent without it: the per-node "topmost" sets must be disjoint.
  // One more bitset past the tree holds the union of those seen so far.
  const int tree_size = static_cast<int>(s.tree_parent.size());
  const int seen = NewTreeNode(s, -1);
  out.connected_variables = true;
  for (int t = 0; t < tree_size; ++t) {
    const int parent = s.tree_parent[static_cast<size_t>(t)];
    const uint64_t* vars = TreeMask(s, t);
    const uint64_t* parent_vars = parent >= 0 ? TreeMask(s, parent) : nullptr;
    uint64_t* seen_tops = TreeMask(s, seen);
    int common = 0;
    for (int k = 0; k < w; ++k) {
      const uint64_t inherited = parent_vars != nullptr ? parent_vars[k] : 0;
      common += std::popcount(vars[k] & inherited);
      const uint64_t tops = vars[k] & ~inherited;
      if ((tops & seen_tops[k]) != 0) out.connected_variables = false;
      seen_tops[k] |= tops;
    }
    out.interface_width = std::max(out.interface_width, common);
  }
  return out;
}

}  // namespace sparqlog::fragments
