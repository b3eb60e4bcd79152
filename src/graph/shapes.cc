#include "graph/shapes.h"

#include <algorithm>
#include <vector>

namespace sparqlog::graph {

// ---------------------------------------------------------------------------
// Scratch-reusing classifier: one CSR snapshot, one component pass, one
// girth pass, and one iterative block DFS that folds petal-center
// candidates per component as blocks pop — no per-call containers.
// ---------------------------------------------------------------------------

namespace {

/// Fills s.centers_tmp (ascending) with the allowed attachment nodes of
/// the cyclic block s.block: for a plain cycle, every node; for a
/// generalized theta (two branch nodes of equal degree, rest degree 2),
/// the two branch nodes. Leaves it empty when the block is not a petal.
void PetalCenters(ShapeScratch& s) {
  auto& bn = s.block_nodes;
  bn.clear();
  for (const auto& [u, v] : s.block) {
    bn.push_back(u);
    bn.push_back(v);
  }
  std::sort(bn.begin(), bn.end());
  bn.erase(std::unique(bn.begin(), bn.end()), bn.end());
  s.block_deg.assign(bn.size(), 0);
  auto index_of = [&bn](int v) {
    return static_cast<size_t>(
        std::lower_bound(bn.begin(), bn.end(), v) - bn.begin());
  };
  for (const auto& [u, v] : s.block) {
    ++s.block_deg[index_of(u)];
    ++s.block_deg[index_of(v)];
  }
  s.centers_tmp.clear();
  int branch_count = 0;
  size_t b1 = 0, b2 = 0;
  for (size_t i = 0; i < bn.size(); ++i) {
    int d = s.block_deg[i];
    if (d < 2) return;  // cannot happen in a 2-connected block
    if (d > 2) {
      if (branch_count == 0) {
        b1 = i;
      } else if (branch_count == 1) {
        b2 = i;
      }
      ++branch_count;
    }
  }
  if (branch_count == 0) {
    s.centers_tmp = bn;  // a simple cycle: every node
    return;
  }
  if (branch_count != 2) return;
  if (s.block_deg[b1] != s.block_deg[b2]) return;
  // Two equal-degree branch nodes, all others degree 2, 2-connected:
  // a union of internally node-disjoint paths, i.e. a petal.
  s.centers_tmp.push_back(bn[b1]);
  s.centers_tmp.push_back(bn[b2]);
}

/// Folds one popped block into the per-component flower state.
void AbsorbBlock(ShapeScratch& s) {
  if (s.block.size() == 1) {
    s.bridge_edges.push_back(s.block[0]);
    return;
  }
  size_t c = static_cast<size_t>(s.comp_id[static_cast<size_t>(s.block[0].first)]);
  if (s.comp_flower_bad[c]) return;
  PetalCenters(s);
  if (s.centers_tmp.empty()) {
    s.comp_flower_bad[c] = 1;
    return;
  }
  auto& list = s.comp_cand_list[c];
  if (!s.comp_cand_init[c]) {
    list = s.centers_tmp;
  } else {
    // Keep the candidates that are also centers of this block.
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&s](int x) {
                                return !std::binary_search(
                                    s.centers_tmp.begin(),
                                    s.centers_tmp.end(), x);
                              }),
               list.end());
  }
  s.comp_cand_init[c] = 1;
}

/// Iterative Tarjan block DFS feeding AbsorbBlock. Self-loops are not
/// part of any block; ClassifyShape handles them separately.
void BlocksScratch(const Graph& g, ShapeScratch& s) {
  int n = g.num_nodes();
  s.disc.assign(static_cast<size_t>(n), -1);
  s.low.assign(static_cast<size_t>(n), 0);
  s.edge_stack.clear();
  int timer = 0;
  for (int root = 0; root < n; ++root) {
    if (s.disc[static_cast<size_t>(root)] >= 0) continue;
    s.frames.clear();
    s.disc[static_cast<size_t>(root)] = s.low[static_cast<size_t>(root)] =
        timer++;
    s.frames.push_back(
        {root, -1, s.csr_off[static_cast<size_t>(root)], false});
    while (!s.frames.empty()) {
      ShapeScratch::Frame& f = s.frames.back();
      if (f.it < s.csr_off[static_cast<size_t>(f.v) + 1]) {
        int w = s.csr_adj[static_cast<size_t>(f.it++)];
        if (w == f.parent && !f.skipped) {
          // Skip exactly one copy of the tree edge back to the parent.
          f.skipped = true;
          continue;
        }
        if (s.disc[static_cast<size_t>(w)] < 0) {
          s.edge_stack.emplace_back(f.v, w);
          s.disc[static_cast<size_t>(w)] = s.low[static_cast<size_t>(w)] =
              timer++;
          int parent = f.v;
          s.frames.push_back(
              {w, parent, s.csr_off[static_cast<size_t>(w)], false});
        } else if (s.disc[static_cast<size_t>(w)] <
                   s.disc[static_cast<size_t>(f.v)]) {
          s.edge_stack.emplace_back(f.v, w);
          s.low[static_cast<size_t>(f.v)] = std::min(
              s.low[static_cast<size_t>(f.v)], s.disc[static_cast<size_t>(w)]);
        }
      } else {
        int child = f.v;
        s.frames.pop_back();
        if (s.frames.empty()) break;
        ShapeScratch::Frame& p = s.frames.back();
        s.low[static_cast<size_t>(p.v)] = std::min(
            s.low[static_cast<size_t>(p.v)], s.low[static_cast<size_t>(child)]);
        if (s.low[static_cast<size_t>(child)] >=
            s.disc[static_cast<size_t>(p.v)]) {
          // p.v is an articulation point (or root): pop one block.
          s.block.clear();
          for (;;) {
            auto e = s.edge_stack.back();
            s.edge_stack.pop_back();
            s.block.push_back(e);
            if (e.first == p.v && e.second == child) break;
          }
          AbsorbBlock(s);
        }
      }
    }
  }
}

int BridgeFind(ShapeScratch& s, int x) {
  while (s.bridge_parent[static_cast<size_t>(x)] != x) {
    s.bridge_parent[static_cast<size_t>(x)] =
        s.bridge_parent[static_cast<size_t>(
            s.bridge_parent[static_cast<size_t>(x)])];
    x = s.bridge_parent[static_cast<size_t>(x)];
  }
  return x;
}

}  // namespace

ShapeClass ClassifyShape(const Graph& g, ShapeScratch& s,
                         util::StepBudget* girth_budget) {
  ShapeClass out;
  const int n = g.num_nodes();
  if (n == 0) {
    out.chain_set = true;
    out.forest = true;
    out.flower = true;
    out.flower_set = true;
    return out;
  }

  // ---- CSR adjacency snapshot ----
  s.csr_off.resize(static_cast<size_t>(n) + 1);
  s.csr_off[0] = 0;
  for (int v = 0; v < n; ++v) {
    s.csr_off[static_cast<size_t>(v) + 1] =
        s.csr_off[static_cast<size_t>(v)] + g.Degree(v);
  }
  s.csr_adj.resize(static_cast<size_t>(s.csr_off[static_cast<size_t>(n)]));
  for (int v = 0; v < n; ++v) {
    int k = s.csr_off[static_cast<size_t>(v)];
    for (int w : g.Neighbors(v)) s.csr_adj[static_cast<size_t>(k++)] = w;
  }

  // ---- Components and per-component aggregates ----
  s.comp_id.assign(static_cast<size_t>(n), -1);
  s.comp_size.clear();
  s.comp_edges2.clear();
  s.comp_maxdeg.clear();
  int num_comps = 0;
  for (int start = 0; start < n; ++start) {
    if (s.comp_id[static_cast<size_t>(start)] >= 0) continue;
    int c = num_comps++;
    s.comp_size.push_back(0);
    s.comp_edges2.push_back(0);
    s.comp_maxdeg.push_back(0);
    s.stack.clear();
    s.stack.push_back(start);
    s.comp_id[static_cast<size_t>(start)] = c;
    while (!s.stack.empty()) {
      int v = s.stack.back();
      s.stack.pop_back();
      ++s.comp_size[static_cast<size_t>(c)];
      int deg = g.Degree(v);
      s.comp_edges2[static_cast<size_t>(c)] += deg;
      s.comp_maxdeg[static_cast<size_t>(c)] =
          std::max(s.comp_maxdeg[static_cast<size_t>(c)], deg);
      for (int k = s.csr_off[static_cast<size_t>(v)];
           k < s.csr_off[static_cast<size_t>(v) + 1]; ++k) {
        int w = s.csr_adj[static_cast<size_t>(k)];
        if (s.comp_id[static_cast<size_t>(w)] < 0) {
          s.comp_id[static_cast<size_t>(w)] = c;
          s.stack.push_back(w);
        }
      }
    }
  }
  s.comp_loop_nodes.assign(static_cast<size_t>(num_comps), 0);
  s.comp_loop_first.assign(static_cast<size_t>(num_comps), -1);
  for (int v : g.self_loops()) {
    size_t c = static_cast<size_t>(s.comp_id[static_cast<size_t>(v)]);
    if (s.comp_loop_nodes[c]++ == 0) s.comp_loop_first[c] = v;
  }

  bool connected = num_comps <= 1;
  bool acyclic = g.self_loops().empty() &&
                 g.num_proper_edges() == n - num_comps;

  // A forest has no cycle by definition, so the all-pairs girth BFS —
  // the costliest piece on the (dominant) tree-like queries — only runs
  // on cyclic graphs.
  out.girth = acyclic ? 0 : g.Girth(s.girth, girth_budget);
  if (out.girth < 0) {
    out.girth = 0;
    out.abandoned = true;
  }

  out.forest = acyclic;
  out.tree = acyclic && connected;  // n > 0 here
  out.single_edge = g.num_edges() == 1 && n == 2;

  // Chains: connected, acyclic, max degree <= 2, at least one edge.
  auto comp_is_chain = [&s](int c) {
    return s.comp_loop_nodes[static_cast<size_t>(c)] == 0 &&
           s.comp_maxdeg[static_cast<size_t>(c)] <= 2 &&
           s.comp_edges2[static_cast<size_t>(c)] / 2 ==
               s.comp_size[static_cast<size_t>(c)] - 1;
  };
  out.chain = connected && comp_is_chain(s.comp_id[0]);
  out.chain_set = true;
  for (int c = 0; c < num_comps; ++c) {
    if (!comp_is_chain(c)) {
      out.chain_set = false;
      break;
    }
  }

  // Star: a tree with exactly one node having more than two neighbors.
  if (out.tree) {
    int hubs = 0;
    for (int v = 0; v < n; ++v) {
      if (g.Degree(v) > 2) ++hubs;
    }
    out.star = hubs == 1;
  }

  // Cycle: connected, all degrees exactly two, exactly one cycle.
  if (connected && g.self_loops().empty()) {
    bool all_two = true;
    for (int v = 0; v < n; ++v) {
      if (g.Degree(v) != 2) all_two = false;
    }
    out.cycle = all_two && g.num_proper_edges() == n;
  }
  // Degenerate cycle: one node with a self-loop only.
  if (connected && n == 1 && g.num_edges() == 1 && !g.self_loops().empty()) {
    out.cycle = true;
  }

  // ---- Flowers (Definition 6.1) ----
  s.comp_flower_bad.assign(static_cast<size_t>(num_comps), 0);
  s.comp_cand_init.assign(static_cast<size_t>(num_comps), 0);
  if (s.comp_cand_list.size() < static_cast<size_t>(num_comps)) {
    s.comp_cand_list.resize(static_cast<size_t>(num_comps));
  }
  for (int c = 0; c < num_comps; ++c) {
    s.comp_cand_list[static_cast<size_t>(c)].clear();
  }
  s.bridge_edges.clear();
  BlocksScratch(g, s);

  // The "rest" graph of the flower definition is the graph minus all
  // petal (cyclic-block) edges — exactly the bridge edges. Union-find
  // its components once; a candidate center must sit inside every
  // nontrivial rest-component of its graph component.
  s.bridge_parent.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) s.bridge_parent[static_cast<size_t>(v)] = v;
  for (const auto& [u, v] : s.bridge_edges) {
    s.bridge_parent[static_cast<size_t>(BridgeFind(s, u))] = BridgeFind(s, v);
  }
  s.bcomp_size.assign(static_cast<size_t>(n), 0);
  for (int v = 0; v < n; ++v) ++s.bcomp_size[static_cast<size_t>(BridgeFind(s, v))];
  s.comp_nontrivial_bcomp.assign(static_cast<size_t>(num_comps), -1);
  for (int v = 0; v < n; ++v) {
    int r = BridgeFind(s, v);
    if (s.bcomp_size[static_cast<size_t>(r)] < 2) continue;
    int& t = s.comp_nontrivial_bcomp[static_cast<size_t>(
        s.comp_id[static_cast<size_t>(v)])];
    if (t == -1) {
      t = r;
    } else if (t != r) {
      t = -2;  // several nontrivial rest-components: no center works
    }
  }

  auto candidate_ok = [&s](int c, int x) {
    int nb = s.comp_nontrivial_bcomp[static_cast<size_t>(c)];
    return nb == -1 || (nb >= 0 && BridgeFind(s, x) == nb);
  };
  out.flower_set = true;
  for (int c = 0; c < num_comps; ++c) {
    int loops = s.comp_loop_nodes[static_cast<size_t>(c)];
    bool ok = false;
    if (s.comp_flower_bad[static_cast<size_t>(c)]) {
      // A cyclic block that is no petal: no center can work.
    } else if (!s.comp_cand_init[static_cast<size_t>(c)]) {
      // No cyclic blocks: an acyclic component is a flower (a tree);
      // with exactly one self-loop node, that node is the only
      // candidate center.
      if (loops == 0) {
        ok = true;
      } else if (loops == 1) {
        ok = candidate_ok(c, s.comp_loop_first[static_cast<size_t>(c)]);
      }
    } else if (loops <= 1) {
      const auto& list = s.comp_cand_list[static_cast<size_t>(c)];
      if (loops == 1) {
        int x = s.comp_loop_first[static_cast<size_t>(c)];
        ok = std::binary_search(list.begin(), list.end(), x) &&
             candidate_ok(c, x);
      } else {
        for (int x : list) {
          if (candidate_ok(c, x)) {
            ok = true;
            break;
          }
        }
      }
    }
    if (!ok) {
      out.flower_set = false;
      break;
    }
  }
  out.flower = connected && out.flower_set;
  return out;
}

ShapeClass ClassifyShape(const Graph& g) {
  ShapeScratch scratch;
  return ClassifyShape(g, scratch);
}

}  // namespace sparqlog::graph
