#include "testing/reference_analysis.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>

namespace sparqlog::testing::reference {

using rdf::Term;
using sparql::Expr;
using sparql::ExprKind;
using sparql::TriplePattern;

// ---------------------------------------------------------------------------
// Pre-change Graph (verbatim graph/graph.cc)
// ---------------------------------------------------------------------------

int ReferenceGraph::AddNode() {
  adj_.emplace_back();
  return static_cast<int>(adj_.size()) - 1;
}

void ReferenceGraph::AddEdge(int u, int v) {
  if (u == v) {
    if (self_loops_.insert(v).second) ++num_edges_;
    return;
  }
  if (adj_[static_cast<size_t>(u)].insert(v).second) {
    adj_[static_cast<size_t>(v)].insert(u);
    ++num_edges_;
  }
}

bool ReferenceGraph::HasEdge(int u, int v) const {
  if (u == v) return HasSelfLoop(v);
  return adj_[static_cast<size_t>(u)].count(v) > 0;
}

std::vector<std::vector<int>> ReferenceGraph::ConnectedComponents() const {
  std::vector<std::vector<int>> components;
  std::vector<bool> seen(adj_.size(), false);
  for (int start = 0; start < num_nodes(); ++start) {
    if (seen[static_cast<size_t>(start)]) continue;
    std::vector<int> comp;
    std::queue<int> frontier;
    frontier.push(start);
    seen[static_cast<size_t>(start)] = true;
    while (!frontier.empty()) {
      int v = frontier.front();
      frontier.pop();
      comp.push_back(v);
      for (int w : Neighbors(v)) {
        if (!seen[static_cast<size_t>(w)]) {
          seen[static_cast<size_t>(w)] = true;
          frontier.push(w);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    components.push_back(std::move(comp));
  }
  return components;
}

ReferenceGraph ReferenceGraph::InducedSubgraph(
    const std::vector<int>& nodes, std::vector<int>* index_map) const {
  std::vector<int> map(adj_.size(), -1);
  ReferenceGraph sub(static_cast<int>(nodes.size()));
  for (size_t i = 0; i < nodes.size(); ++i) {
    map[static_cast<size_t>(nodes[i])] = static_cast<int>(i);
  }
  for (int v : nodes) {
    int nv = map[static_cast<size_t>(v)];
    if (HasSelfLoop(v)) sub.AddEdge(nv, nv);
    for (int w : Neighbors(v)) {
      int nw = map[static_cast<size_t>(w)];
      if (nw >= 0 && nv < nw) sub.AddEdge(nv, nw);
    }
  }
  if (index_map != nullptr) *index_map = std::move(map);
  return sub;
}

bool ReferenceGraph::IsAcyclic(bool ignore_self_loops) const {
  if (!ignore_self_loops && !self_loops_.empty()) return false;
  int components = static_cast<int>(ConnectedComponents().size());
  return num_proper_edges() == num_nodes() - components;
}

int ReferenceGraph::Girth() const {
  if (!self_loops_.empty()) return 1;
  int best = 0;
  int n = num_nodes();
  for (int start = 0; start < n; ++start) {
    std::vector<int> dist(static_cast<size_t>(n), -1);
    std::vector<int> parent(static_cast<size_t>(n), -1);
    std::queue<int> frontier;
    dist[static_cast<size_t>(start)] = 0;
    frontier.push(start);
    while (!frontier.empty()) {
      int v = frontier.front();
      frontier.pop();
      for (int w : Neighbors(v)) {
        if (dist[static_cast<size_t>(w)] < 0) {
          dist[static_cast<size_t>(w)] = dist[static_cast<size_t>(v)] + 1;
          parent[static_cast<size_t>(w)] = v;
          frontier.push(w);
        } else if (w != parent[static_cast<size_t>(v)]) {
          int len = dist[static_cast<size_t>(v)] +
                    dist[static_cast<size_t>(w)] + 1;
          if (best == 0 || len < best) best = len;
        }
      }
    }
  }
  return best;
}

ReferenceGraph FromGraph(const graph::Graph& g) {
  ReferenceGraph out(g.num_nodes());
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (g.HasSelfLoop(v)) out.AddEdge(v, v);
    for (int w : g.Neighbors(v)) {
      if (v < w) out.AddEdge(v, w);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pre-change Hypergraph (verbatim graph/hypergraph.cc)
// ---------------------------------------------------------------------------

void ReferenceHypergraph::AddEdge(std::set<int> nodes) {
  if (nodes.empty()) return;
  num_nodes_ = std::max(num_nodes_, *nodes.rbegin() + 1);
  edges_.push_back(std::move(nodes));
}

bool ReferenceHypergraph::IsAlphaAcyclic() const {
  std::vector<std::set<int>> edges = edges_;
  std::vector<bool> alive(edges.size(), true);
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<int> occurrences(static_cast<size_t>(num_nodes_), 0);
    for (size_t i = 0; i < edges.size(); ++i) {
      if (!alive[i]) continue;
      for (int v : edges[i]) ++occurrences[static_cast<size_t>(v)];
    }
    for (size_t i = 0; i < edges.size(); ++i) {
      if (!alive[i]) continue;
      for (auto it = edges[i].begin(); it != edges[i].end();) {
        if (occurrences[static_cast<size_t>(*it)] == 1) {
          it = edges[i].erase(it);
          changed = true;
        } else {
          ++it;
        }
      }
      if (edges[i].empty()) alive[i] = false;
    }
    for (size_t i = 0; i < edges.size(); ++i) {
      if (!alive[i]) continue;
      for (size_t j = 0; j < edges.size(); ++j) {
        if (i == j || !alive[j]) continue;
        if (std::includes(edges[j].begin(), edges[j].end(),
                          edges[i].begin(), edges[i].end()) &&
            (edges[i] != edges[j] || i > j)) {
          alive[i] = false;
          changed = true;
          break;
        }
      }
    }
  }
  for (size_t i = 0; i < edges.size(); ++i) {
    if (alive[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pre-change canonical builders (verbatim graph/canonical.cc)
// ---------------------------------------------------------------------------

namespace {

class UnionFind {
 public:
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) { parent_[static_cast<size_t>(Find(a))] = Find(b); }
  int Add() {
    parent_.push_back(static_cast<int>(parent_.size()));
    return static_cast<int>(parent_.size()) - 1;
  }

 private:
  std::vector<int> parent_;
};

std::string NodeKey(const Term& t) {
  switch (t.kind) {
    case rdf::TermKind::kVariable: return "?" + std::string(t.value);
    case rdf::TermKind::kBlank: return "_" + std::string(t.value);
    case rdf::TermKind::kIri: return "<" + std::string(t.value);
    case rdf::TermKind::kLiteral:
      return "\"" + std::string(t.value) + "^" + std::string(t.datatype) +
             "@" + std::string(t.lang);
  }
  return "";
}

void CollectEqualityPairs(const Expr& e,
                          std::vector<std::pair<std::string, std::string>>& out) {
  if (graph::IsVarEqualityFilter(e)) {
    out.emplace_back("?" + e.args[0].term.value, "?" + e.args[1].term.value);
    return;
  }
  if (e.kind == ExprKind::kAnd) {
    for (const Expr& a : e.args) CollectEqualityPairs(a, out);
  }
}

}  // namespace

ReferenceCanonicalGraph BuildCanonicalGraph(
    const std::vector<const TriplePattern*>& triples,
    const std::vector<const Expr*>& filters,
    const graph::CanonicalOptions& options) {
  ReferenceCanonicalGraph out;
  for (const TriplePattern* tp : triples) {
    if (tp->has_path() || tp->predicate.is_variable()) {
      out.valid = false;
      return out;
    }
  }

  UnionFind uf;
  std::map<std::string, int> key_to_uf;
  std::map<int, Term> uf_term;
  auto intern = [&](const Term& t) {
    std::string key = NodeKey(t);
    auto it = key_to_uf.find(key);
    if (it != key_to_uf.end()) return it->second;
    int id = uf.Add();
    key_to_uf.emplace(std::move(key), id);
    uf_term.emplace(id, t);
    return id;
  };

  if (options.collapse_equality_filters) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const Expr* f : filters) CollectEqualityPairs(*f, pairs);
    for (const auto& [a, b] : pairs) {
      Term ta = Term::Var(a.substr(1));
      Term tb = Term::Var(b.substr(1));
      uf.Union(intern(ta), intern(tb));
    }
  }

  auto keep = [&](const Term& t) {
    return options.include_constants || t.is_unknown();
  };

  std::map<int, int> class_to_node;
  auto node_of = [&](const Term& t) {
    int cls = uf.Find(intern(t));
    auto it = class_to_node.find(cls);
    if (it != class_to_node.end()) return it->second;
    int node = out.graph.AddNode();
    out.node_terms.push_back(uf_term.at(cls));
    class_to_node.emplace(cls, node);
    return node;
  };

  for (const TriplePattern* tp : triples) {
    bool ks = keep(tp->subject);
    bool ko = keep(tp->object);
    if (ks && ko) {
      out.graph.AddEdge(node_of(tp->subject), node_of(tp->object));
    } else if (ks) {
      node_of(tp->subject);
    } else if (ko) {
      node_of(tp->object);
    }
  }
  return out;
}

ReferenceHypergraph BuildCanonicalHypergraph(
    const std::vector<const TriplePattern*>& triples,
    const std::vector<const Expr*>& filters,
    const graph::CanonicalOptions& options) {
  UnionFind uf;
  std::map<std::string, int> key_to_uf;
  auto intern = [&](const Term& t) {
    std::string key = NodeKey(t);
    auto it = key_to_uf.find(key);
    if (it != key_to_uf.end()) return it->second;
    int id = uf.Add();
    key_to_uf.emplace(std::move(key), id);
    return id;
  };

  if (options.collapse_equality_filters) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const Expr* f : filters) CollectEqualityPairs(*f, pairs);
    for (const auto& [a, b] : pairs) {
      uf.Union(intern(Term::Var(a.substr(1))), intern(Term::Var(b.substr(1))));
    }
  }

  std::map<int, int> class_to_node;
  int next_node = 0;
  auto node_of = [&](const Term& t) {
    int cls = uf.Find(intern(t));
    auto it = class_to_node.find(cls);
    if (it != class_to_node.end()) return it->second;
    class_to_node.emplace(cls, next_node);
    return next_node++;
  };

  ReferenceHypergraph hg;
  for (const TriplePattern* tp : triples) {
    std::set<int> edge;
    if (tp->subject.is_unknown()) edge.insert(node_of(tp->subject));
    if (!tp->has_path() && tp->predicate.is_unknown()) {
      edge.insert(node_of(tp->predicate));
    }
    if (tp->object.is_unknown()) edge.insert(node_of(tp->object));
    hg.AddEdge(std::move(edge));
  }
  return hg;
}

// ---------------------------------------------------------------------------
// Pre-change shape classifier (verbatim graph/shapes.cc)
// ---------------------------------------------------------------------------

namespace {

std::vector<std::vector<std::pair<int, int>>> Blocks(const ReferenceGraph& g) {
  int n = g.num_nodes();
  std::vector<int> disc(static_cast<size_t>(n), -1),
      low(static_cast<size_t>(n), 0);
  std::vector<std::pair<int, int>> edge_stack;
  std::vector<std::vector<std::pair<int, int>>> blocks;
  int timer = 0;

  std::function<void(int, int)> dfs = [&](int u, int parent) {
    disc[static_cast<size_t>(u)] = low[static_cast<size_t>(u)] = timer++;
    bool skipped_parent_edge = false;
    for (int v : g.Neighbors(u)) {
      if (v == parent && !skipped_parent_edge) {
        skipped_parent_edge = true;
        continue;
      }
      if (disc[static_cast<size_t>(v)] < 0) {
        edge_stack.emplace_back(u, v);
        dfs(v, u);
        low[static_cast<size_t>(u)] =
            std::min(low[static_cast<size_t>(u)], low[static_cast<size_t>(v)]);
        if (low[static_cast<size_t>(v)] >= disc[static_cast<size_t>(u)]) {
          std::vector<std::pair<int, int>> block;
          for (;;) {
            auto e = edge_stack.back();
            edge_stack.pop_back();
            block.push_back(e);
            if (e.first == u && e.second == v) break;
          }
          blocks.push_back(std::move(block));
        }
      } else if (disc[static_cast<size_t>(v)] < disc[static_cast<size_t>(u)]) {
        edge_stack.emplace_back(u, v);
        low[static_cast<size_t>(u)] =
            std::min(low[static_cast<size_t>(u)], disc[static_cast<size_t>(v)]);
      }
    }
  };

  for (int u = 0; u < n; ++u) {
    if (disc[static_cast<size_t>(u)] < 0) dfs(u, -1);
  }
  return blocks;
}

std::set<int> BlockNodes(const std::vector<std::pair<int, int>>& block) {
  std::set<int> nodes;
  for (const auto& [u, v] : block) {
    nodes.insert(u);
    nodes.insert(v);
  }
  return nodes;
}

std::set<int> PetalCenters(const std::vector<std::pair<int, int>>& block) {
  std::set<int> nodes = BlockNodes(block);
  std::vector<std::pair<int, int>> degrees;
  {
    for (int v : nodes) {
      int d = 0;
      for (const auto& [a, b] : block) {
        if (a == v || b == v) ++d;
      }
      degrees.emplace_back(v, d);
    }
  }
  std::set<int> branch;
  for (const auto& [v, d] : degrees) {
    if (d > 2) branch.insert(v);
    if (d < 2) return {};
  }
  if (branch.empty()) return nodes;
  if (branch.size() != 2) return {};
  auto it = branch.begin();
  int u = *it++;
  int v = *it;
  int du = 0, dv = 0;
  for (const auto& [a, b] : block) {
    if (a == u || b == u) ++du;
    if (a == v || b == v) ++dv;
  }
  if (du != dv) return {};
  return branch;
}

bool IsFlowerWithCenter(const ReferenceGraph& g, int x) {
  for (int v : g.self_loops()) {
    if (v != x) return false;
  }
  auto blocks = Blocks(g);
  std::set<std::pair<int, int>> petal_edges;
  for (const auto& block : blocks) {
    if (block.size() <= 1) continue;
    std::set<int> centers = PetalCenters(block);
    if (centers.count(x) == 0) return false;
    for (const auto& [u, v] : block) {
      petal_edges.insert({std::min(u, v), std::max(u, v)});
    }
  }
  ReferenceGraph rest(g.num_nodes());
  for (int u = 0; u < g.num_nodes(); ++u) {
    for (int v : g.Neighbors(u)) {
      if (u < v && petal_edges.count({u, v}) == 0) rest.AddEdge(u, v);
    }
  }
  for (const auto& comp : rest.ConnectedComponents()) {
    if (comp.size() <= 1) continue;
    bool has_edge = false;
    for (int v : comp) {
      if (rest.Degree(v) > 0) has_edge = true;
    }
    if (!has_edge) continue;
    if (std::find(comp.begin(), comp.end(), x) == comp.end()) return false;
  }
  return true;
}

bool IsFlowerConnected(const ReferenceGraph& g) {
  if (g.num_nodes() == 0) return true;
  if (g.IsAcyclic()) return true;
  auto blocks = Blocks(g);
  bool first = true;
  std::set<int> candidates;
  for (const auto& block : blocks) {
    if (block.size() <= 1) continue;
    std::set<int> centers = PetalCenters(block);
    if (centers.empty()) return false;
    if (first) {
      candidates = std::move(centers);
      first = false;
    } else {
      std::set<int> merged;
      std::set_intersection(candidates.begin(), candidates.end(),
                            centers.begin(), centers.end(),
                            std::inserter(merged, merged.begin()));
      candidates = std::move(merged);
    }
  }
  for (int v : g.self_loops()) {
    if (first) {
      candidates.insert(v);
    }
  }
  if (!g.self_loops().empty()) {
    std::set<int> loop_nodes(g.self_loops().begin(), g.self_loops().end());
    if (loop_nodes.size() > 1) return false;
    if (first) {
      candidates = loop_nodes;
    } else {
      std::set<int> merged;
      std::set_intersection(candidates.begin(), candidates.end(),
                            loop_nodes.begin(), loop_nodes.end(),
                            std::inserter(merged, merged.begin()));
      candidates = std::move(merged);
    }
  }
  for (int x : candidates) {
    if (IsFlowerWithCenter(g, x)) return true;
  }
  return false;
}

}  // namespace

graph::ShapeClass ClassifyShape(const ReferenceGraph& g) {
  graph::ShapeClass s;
  s.girth = g.Girth();
  auto components = g.ConnectedComponents();
  bool connected = components.size() <= 1;
  bool acyclic = g.IsAcyclic();

  s.forest = acyclic;
  s.tree = acyclic && connected && g.num_nodes() > 0;
  s.single_edge = g.num_edges() == 1 && g.num_nodes() == 2;

  auto is_chain_component = [&](const std::vector<int>& comp) {
    int max_degree = 0;
    for (int v : comp) {
      if (g.HasSelfLoop(v)) return false;
      max_degree = std::max(max_degree, g.Degree(v));
    }
    int edges = 0;
    for (int v : comp) edges += g.Degree(v);
    edges /= 2;
    return edges == static_cast<int>(comp.size()) - 1 && max_degree <= 2;
  };
  if (g.num_nodes() > 0) {
    s.chain = connected && is_chain_component(components[0]);
    s.chain_set = true;
    for (const auto& comp : components) {
      if (!is_chain_component(comp)) {
        s.chain_set = false;
        break;
      }
    }
  } else {
    s.chain_set = true;
    s.forest = true;
  }

  if (s.tree) {
    int hubs = 0;
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (g.Degree(v) > 2) ++hubs;
    }
    s.star = hubs == 1;
  }

  if (connected && g.num_nodes() > 0 && g.self_loops().empty()) {
    bool all_two = true;
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (g.Degree(v) != 2) all_two = false;
    }
    s.cycle = all_two && g.num_proper_edges() == g.num_nodes();
  }
  if (connected && g.num_nodes() == 1 && g.num_edges() == 1 &&
      !g.self_loops().empty()) {
    s.cycle = true;
  }

  if (g.num_nodes() == 0) {
    s.flower = true;
    s.flower_set = true;
  } else {
    s.flower_set = true;
    for (const auto& comp : components) {
      ReferenceGraph sub = g.InducedSubgraph(comp);
      if (!IsFlowerConnected(sub)) {
        s.flower_set = false;
        break;
      }
    }
    s.flower = connected && s.flower_set;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Pre-change treewidth (verbatim width/treewidth.cc)
// ---------------------------------------------------------------------------

namespace {

bool ReducesToEmpty(std::vector<std::set<int>> adj) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t v = 0; v < adj.size(); ++v) {
      size_t deg = adj[v].size();
      if (deg == 0) continue;
      if (deg == 1) {
        int u = *adj[v].begin();
        adj[static_cast<size_t>(u)].erase(static_cast<int>(v));
        adj[v].clear();
        changed = true;
      } else if (deg == 2) {
        auto it = adj[v].begin();
        int a = *it++;
        int b = *it;
        adj[static_cast<size_t>(a)].erase(static_cast<int>(v));
        adj[static_cast<size_t>(b)].erase(static_cast<int>(v));
        adj[v].clear();
        adj[static_cast<size_t>(a)].insert(b);
        adj[static_cast<size_t>(b)].insert(a);
        changed = true;
      }
    }
  }
  for (const auto& neighbors : adj) {
    if (!neighbors.empty()) return false;
  }
  return true;
}

std::vector<std::set<int>> Kernelize(const ReferenceGraph& g) {
  std::vector<std::set<int>> adj(static_cast<size_t>(g.num_nodes()));
  for (int v = 0; v < g.num_nodes(); ++v) {
    adj[static_cast<size_t>(v)] = g.Neighbors(v);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t v = 0; v < adj.size(); ++v) {
      size_t deg = adj[v].size();
      if (deg == 1) {
        int u = *adj[v].begin();
        adj[static_cast<size_t>(u)].erase(static_cast<int>(v));
        adj[v].clear();
        changed = true;
      } else if (deg == 2) {
        auto it = adj[v].begin();
        int a = *it++;
        int b = *it;
        adj[static_cast<size_t>(a)].erase(static_cast<int>(v));
        adj[static_cast<size_t>(b)].erase(static_cast<int>(v));
        adj[v].clear();
        adj[static_cast<size_t>(a)].insert(b);
        adj[static_cast<size_t>(b)].insert(a);
        changed = true;
      }
    }
  }
  std::vector<int> remap(adj.size(), -1);
  int next = 0;
  for (size_t v = 0; v < adj.size(); ++v) {
    if (!adj[v].empty()) remap[v] = next++;
  }
  std::vector<std::set<int>> kernel(static_cast<size_t>(next));
  for (size_t v = 0; v < adj.size(); ++v) {
    if (remap[v] < 0) continue;
    for (int w : adj[v]) {
      kernel[static_cast<size_t>(remap[v])].insert(
          remap[static_cast<size_t>(w)]);
    }
  }
  return kernel;
}

class EliminationSolver {
 public:
  explicit EliminationSolver(std::vector<uint64_t> adj)
      : n_(static_cast<int>(adj.size())), adj_(std::move(adj)) {}

  int Solve() {
    uint64_t all = n_ == 64 ? ~0ULL : ((1ULL << n_) - 1);
    int upper = MinFillUpperBound();
    best_ = upper;
    Search(adj_, all, 0);
    return best_;
  }

 private:
  int MinFillUpperBound() {
    std::vector<uint64_t> adj = adj_;
    uint64_t alive = n_ == 64 ? ~0ULL : ((1ULL << n_) - 1);
    int width = 0;
    while (alive != 0) {
      int best_v = -1;
      long best_fill = -1;
      for (int v = 0; v < n_; ++v) {
        if (((alive >> v) & 1) == 0) continue;
        uint64_t nb = adj[static_cast<size_t>(v)] & alive;
        long fill = 0;
        for (int a = 0; a < n_; ++a) {
          if (((nb >> a) & 1) == 0) continue;
          uint64_t missing = nb & ~adj[static_cast<size_t>(a)];
          missing &= ~(1ULL << a);
          fill += std::popcount(missing);
        }
        if (best_fill < 0 || fill < best_fill) {
          best_fill = fill;
          best_v = v;
        }
      }
      uint64_t nb = adj[static_cast<size_t>(best_v)] & alive;
      width = std::max(width, std::popcount(nb));
      Eliminate(adj, best_v, nb);
      alive &= ~(1ULL << best_v);
    }
    return width;
  }

  static void Eliminate(std::vector<uint64_t>& adj, int v, uint64_t nb) {
    for (int a = 0; a < 64; ++a) {
      if (((nb >> a) & 1) == 0) continue;
      adj[static_cast<size_t>(a)] |= nb;
      adj[static_cast<size_t>(a)] &= ~(1ULL << a);
      adj[static_cast<size_t>(a)] &= ~(1ULL << v);
    }
  }

  void Search(const std::vector<uint64_t>& adj, uint64_t alive,
              int width_so_far) {
    if (alive == 0) {
      best_ = std::min(best_, width_so_far);
      return;
    }
    if (width_so_far >= best_) return;
    auto it = memo_.find(alive);
    if (it != memo_.end() && it->second <= width_so_far) return;
    memo_[alive] = width_so_far;

    std::vector<std::pair<int, int>> candidates;
    for (int v = 0; v < n_; ++v) {
      if (((alive >> v) & 1) == 0) continue;
      int deg = std::popcount(adj[static_cast<size_t>(v)] & alive);
      candidates.emplace_back(deg, v);
    }
    std::sort(candidates.begin(), candidates.end());
    for (const auto& [deg, v] : candidates) {
      int width = std::max(width_so_far, deg);
      if (width >= best_) continue;
      std::vector<uint64_t> next = adj;
      Eliminate(next, v, adj[static_cast<size_t>(v)] & alive);
      Search(next, alive & ~(1ULL << v), width);
    }
  }

  int n_;
  std::vector<uint64_t> adj_;
  int best_ = 0;
  std::unordered_map<uint64_t, int> memo_;
};

}  // namespace

bool TreewidthAtMost2(const ReferenceGraph& g) {
  std::vector<std::set<int>> adj(static_cast<size_t>(g.num_nodes()));
  for (int v = 0; v < g.num_nodes(); ++v) {
    adj[static_cast<size_t>(v)] = g.Neighbors(v);
  }
  return ReducesToEmpty(std::move(adj));
}

width::TreewidthResult Treewidth(const ReferenceGraph& g) {
  width::TreewidthResult result;
  if (g.num_nodes() == 0 || g.num_proper_edges() == 0) {
    result.width = 0;
    return result;
  }
  if (g.IsAcyclic(/*ignore_self_loops=*/true)) {
    result.width = 1;
    return result;
  }
  if (TreewidthAtMost2(g)) {
    result.width = 2;
    return result;
  }
  std::vector<std::set<int>> kernel = Kernelize(g);
  if (kernel.size() > 64) {
    result.exact = false;
    result.width = static_cast<int>(kernel.size());
    return result;
  }
  std::vector<uint64_t> adj(kernel.size(), 0);
  for (size_t v = 0; v < kernel.size(); ++v) {
    for (int w : kernel[v]) adj[v] |= 1ULL << w;
  }
  EliminationSolver solver(std::move(adj));
  result.width = solver.Solve();
  return result;
}

// ---------------------------------------------------------------------------
// Pre-change generalized hypertree width (verbatim width/hypertree.cc)
// ---------------------------------------------------------------------------

namespace {

class DetKDecomp {
 public:
  DetKDecomp(const ReferenceHypergraph& hg, int k) : hg_(hg), k_(k) {}

  std::optional<int> Decompose(const std::vector<int>& edge_ids,
                               const std::set<int>& connector) {
    auto key = std::make_pair(edge_ids, connector);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    std::optional<int> result = DecomposeUncached(edge_ids, connector);
    memo_.emplace(std::move(key), result);
    return result;
  }

 private:
  std::set<int> VerticesOf(const std::vector<int>& edge_ids) const {
    std::set<int> out;
    for (int e : edge_ids) {
      const auto& edge = hg_.edges()[static_cast<size_t>(e)];
      out.insert(edge.begin(), edge.end());
    }
    return out;
  }

  std::optional<int> DecomposeUncached(const std::vector<int>& edge_ids,
                                       const std::set<int>& connector) {
    std::set<int> comp_vertices = VerticesOf(edge_ids);
    std::vector<int> candidates;
    for (int e = 0; e < hg_.num_edges(); ++e) {
      const auto& edge = hg_.edges()[static_cast<size_t>(e)];
      bool touches = false;
      for (int v : edge) {
        if (comp_vertices.count(v) > 0 || connector.count(v) > 0) {
          touches = true;
          break;
        }
      }
      if (touches) candidates.push_back(e);
    }

    std::vector<int> chosen;
    return TrySeparators(edge_ids, connector, comp_vertices, candidates, 0,
                         chosen);
  }

  std::optional<int> TrySeparators(const std::vector<int>& edge_ids,
                                   const std::set<int>& connector,
                                   const std::set<int>& comp_vertices,
                                   const std::vector<int>& candidates,
                                   size_t start, std::vector<int>& chosen) {
    if (!chosen.empty()) {
      std::optional<int> nodes =
          CheckSeparator(edge_ids, connector, comp_vertices, chosen);
      if (nodes.has_value()) return nodes;
    }
    if (chosen.size() == static_cast<size_t>(k_)) return std::nullopt;
    for (size_t i = start; i < candidates.size(); ++i) {
      chosen.push_back(candidates[i]);
      std::optional<int> nodes = TrySeparators(
          edge_ids, connector, comp_vertices, candidates, i + 1, chosen);
      chosen.pop_back();
      if (nodes.has_value()) return nodes;
    }
    return std::nullopt;
  }

  std::optional<int> CheckSeparator(const std::vector<int>& edge_ids,
                                    const std::set<int>& connector,
                                    const std::set<int>& comp_vertices,
                                    const std::vector<int>& separator) {
    std::set<int> bag;
    for (int e : separator) {
      const auto& edge = hg_.edges()[static_cast<size_t>(e)];
      bag.insert(edge.begin(), edge.end());
    }
    for (int v : connector) {
      if (bag.count(v) == 0) return std::nullopt;
    }
    bool covers_new = false;
    for (int v : comp_vertices) {
      if (connector.count(v) == 0 && bag.count(v) > 0) {
        covers_new = true;
        break;
      }
    }
    if (!covers_new) return std::nullopt;
    std::set<int> remaining;
    for (int v : comp_vertices) {
      if (bag.count(v) == 0) remaining.insert(v);
    }
    int total_nodes = 1;
    std::set<int> assigned;
    for (int seed : remaining) {
      if (assigned.count(seed) > 0) continue;
      std::set<int> comp{seed};
      std::vector<int> frontier{seed};
      std::set<int> comp_edges;
      while (!frontier.empty()) {
        int v = frontier.back();
        frontier.pop_back();
        for (int e : edge_ids) {
          const auto& edge = hg_.edges()[static_cast<size_t>(e)];
          if (edge.count(v) == 0) continue;
          comp_edges.insert(e);
          for (int w : edge) {
            if (bag.count(w) > 0 || comp.count(w) > 0) continue;
            comp.insert(w);
            frontier.push_back(w);
          }
        }
      }
      assigned.insert(comp.begin(), comp.end());
      std::set<int> sub_connector;
      for (int e : comp_edges) {
        const auto& edge = hg_.edges()[static_cast<size_t>(e)];
        for (int w : edge) {
          if (bag.count(w) > 0) sub_connector.insert(w);
        }
      }
      std::vector<int> sub_edges(comp_edges.begin(), comp_edges.end());
      std::optional<int> sub_nodes = Decompose(sub_edges, sub_connector);
      if (!sub_nodes.has_value()) return std::nullopt;
      total_nodes += *sub_nodes;
    }
    return total_nodes;
  }

  const ReferenceHypergraph& hg_;
  int k_;
  std::map<std::pair<std::vector<int>, std::set<int>>, std::optional<int>>
      memo_;
};

}  // namespace

width::GhwResult GeneralizedHypertreeWidth(const ReferenceHypergraph& hg,
                                           int max_k) {
  width::GhwResult result;
  if (hg.num_edges() == 0) return result;

  if (hg.IsAlphaAcyclic()) {
    result.width = 1;
    result.decomposition_nodes = hg.num_edges();
    return result;
  }

  std::vector<int> all_edges(static_cast<size_t>(hg.num_edges()));
  for (int e = 0; e < hg.num_edges(); ++e) {
    all_edges[static_cast<size_t>(e)] = e;
  }
  for (int k = 2; k <= max_k; ++k) {
    DetKDecomp solver(hg, k);
    std::optional<int> nodes = solver.Decompose(all_edges, {});
    if (nodes.has_value()) {
      result.width = k;
      result.decomposition_nodes = *nodes;
      return result;
    }
  }
  result.width = max_k + 1;
  result.exact = false;
  return result;
}

}  // namespace sparqlog::testing::reference
