#include "brain/ksp.h"

#include <algorithm>
#include <limits>

namespace livenet::brain {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Array-based Dijkstra core.
//
// Selection: the unsettled node with the smallest (dist, index) by
// linear scan. This settles nodes in *exactly* the order of the
// reference lazy-deletion heap: with non-negative weights every
// unsettled node with a finite distance has a live heap entry equal to
// its current distance, so the heap pop is the minimum (dist, index)
// pair — which is what the scan picks (strict `<` keeps the lowest
// index among ties). Relaxation visits CSR columns in ascending order,
// matching the reference's dense `for (v = 0; v < n; ++v)` scan, and
// only strict improvements write dist/prev. Identical settle order +
// identical relaxation order + identical update rule => bit-identical
// dist, prev, and extracted paths.
//
// Settled nodes need no guard in the relaxation loop: if v settled
// before u then dist[v] <= dist[u], so dist[u] + w >= dist[v] can never
// be a strict improvement.

struct CoreBans {
  const std::uint8_t* banned_node = nullptr;  ///< may be null
  /// Banned first hops out of the search source (Yen spur edges all
  /// originate at the spur node, so the general edge check collapses
  /// to a tiny membership test applied only while relaxing the source).
  const std::vector<std::uint32_t>* banned_next = nullptr;
  /// Bound pruning (Yen spur fallback): when `h_to_dst` is set, a write
  /// of nd into v is skipped if nd + h(v) > prune_bound, where
  /// h(v) = h_to_dst[v] (the cached unrestricted tree distance v..dst
  /// read from the solver's transposed matrix — one contiguous column,
  /// not a stride-n probe; a lower bound on any banned continuation;
  /// 0 when v's tree is not built yet) and prune_bound is the cost of a
  /// known valid path. Such writes can never participate in dst's final
  /// dist/prev chain — every chain write extends to dst within the
  /// bound — so dst's extracted path and cost bits are unchanged while
  /// hopeless nodes stay at infinity and are never settled.
  const double* h_to_dst = nullptr;
  const std::uint8_t* h_built = nullptr;
  double prune_bound = kInf;
};

/// Runs Dijkstra from `src`; stops after settling `stop` (pass n for a
/// full tree). `dist`/`prev`/`settled` must each hold n elements.
///
/// Initialization contract: with `touched == nullptr` the arrays are
/// fully (re)initialized here (tree builds). With a `touched`
/// list, the arrays must already be at baseline (+inf / n / 0) except
/// for the cells named by the list — the cells the *previous* call
/// wrote — which are reset here, and the list is rebuilt for the next
/// call. The pruned spur fallback writes a handful of cells, so this
/// turns three O(n) fills into O(cells written) resets.
///
/// Node selection scans the frontier (touched ∧ unsettled) for the
/// minimal (dist, index). The reference scans all n indices ascending
/// and keeps the first strict minimum — the same element, since nodes
/// outside the frontier all sit at +inf and can never be selected
/// before a finite one, and when only +inf remains both forms stop.
void dijkstra_core(const RoutingGraph::CsrView& csr, std::size_t n,
                   std::size_t src, std::size_t stop, const CoreBans& bans,
                   double* dist, std::uint32_t* prev, std::uint8_t* settled,
                   std::vector<std::uint32_t>* frontier,
                   std::vector<std::uint32_t>* touched) {
  if (touched != nullptr) {
    for (const std::uint32_t v : *touched) {
      dist[v] = kInf;
      prev[v] = static_cast<std::uint32_t>(n);
      settled[v] = 0;
    }
    touched->clear();
  } else {
    std::fill(dist, dist + n, kInf);
    std::fill(prev, prev + n, static_cast<std::uint32_t>(n));
    std::fill(settled, settled + n, std::uint8_t{0});
  }
  frontier->clear();
  dist[src] = 0.0;
  frontier->push_back(static_cast<std::uint32_t>(src));
  if (touched != nullptr) touched->push_back(static_cast<std::uint32_t>(src));
  for (;;) {
    double best = kInf;
    std::size_t u = n;
    std::size_t upos = 0;
    for (std::size_t i = 0; i < frontier->size(); ++i) {
      const std::uint32_t v = (*frontier)[i];
      const double dv = dist[v];
      if (dv < best || (dv == best && v < u)) {
        best = dv;
        u = v;
        upos = i;
      }
    }
    if (u == n) break;  // queue exhausted
    (*frontier)[upos] = frontier->back();
    frontier->pop_back();
    settled[u] = 1;
    if (u == stop) break;  // reference breaks before relaxing dst
    const std::uint32_t row_end = csr.row_start[u + 1];
    const bool at_src = (u == src);
    const double du = dist[u];
    for (std::uint32_t e = csr.row_start[u]; e < row_end; ++e) {
      const std::uint32_t v = csr.col[e];
      if (bans.banned_node != nullptr && bans.banned_node[v] != 0) continue;
      if (at_src && bans.banned_next != nullptr) {
        bool banned = false;
        for (const std::uint32_t b : *bans.banned_next) {
          if (b == v) {
            banned = true;
            break;
          }
        }
        if (banned) continue;
      }
      const double nd = du + csr.weight[e];
      if (nd < dist[v]) {
        if (bans.h_to_dst != nullptr) {
          const double hv = bans.h_built[v] != 0 ? bans.h_to_dst[v] : 0.0;
          if (nd + hv > bans.prune_bound) continue;
        }
        if (dist[v] == kInf) {  // first touch: enters frontier + undo list
          frontier->push_back(v);
          if (touched != nullptr) touched->push_back(v);
        }
        dist[v] = nd;
        prev[v] = u;
      }
    }
  }
}

/// dst..src backward walk over a prev row, reversed into `out`.
void extract_path(const std::uint32_t* prev, std::size_t src,
                  std::size_t dst, std::vector<std::size_t>* out) {
  out->clear();
  for (std::size_t cur = dst;;) {
    out->push_back(cur);
    if (cur == src) break;
    cur = prev[cur];
  }
  std::reverse(out->begin(), out->end());
}

}  // namespace

// ---------------------------------------------------------------------------
// KspSolver.

void KspSolver::rebind(const RoutingGraph& g) {
  g_ = &g;
  if (g.size() != n_) {
    n_ = g.size();
    tree_dist_.resize(n_ * n_);
    tree_dist_t_.resize(n_ * n_);
    tree_prev_.resize(n_ * n_);
    tree_settled_.resize(n_);
    ws_.bind(n_);
  }
  // Drop validity flags only: the n*n tree rows and the workspace keep
  // their storage.
  tree_built_.assign(n_, 0);
  built_count_ = 0;
  src_set_ = false;
}

void KspSolver::ensure_tree(std::size_t root) {
  if (tree_built_[root] != 0) return;
  // Full-fill mode (touched = nullptr): the row holds stale data from a
  // previous cycle. tree_settled_ keeps the fill away from ws_.settled,
  // whose baseline the fallback's touched list maintains.
  dijkstra_core(g_->csr(), n_, root, n_, CoreBans{},
                tree_dist_.data() + root * n_, tree_prev_.data() + root * n_,
                tree_settled_.data(), &ws_.frontier, nullptr);
  // Mirror the fresh row into the transposed matrix (one O(n) scatter
  // per build, amortized over every stitch scan that reads the column).
  const double* row = tree_dist_.data() + root * n_;
  double* col = tree_dist_t_.data() + root;
  for (std::size_t d = 0; d < n_; ++d) col[d * n_] = row[d];
  tree_built_[root] = 1;
  ++built_count_;
}

void KspSolver::set_source(std::size_t src) {
  src_ = src;
  src_set_ = true;
  ensure_tree(src);
}

std::size_t KspSolver::acquire_slot() {
  if (arena_used_ == arena_.size()) arena_.emplace_back();
  arena_[arena_used_].clear();
  return arena_used_++;
}

bool KspSolver::seen_insert(std::size_t slot) {
  const std::vector<std::size_t>& nodes = arena_[slot];
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const std::size_t v : nodes) {
    h ^= static_cast<std::uint64_t>(v) + 0x9E3779B97F4A7C15ull + (h << 6) +
         (h >> 2);
  }
  for (const SeenSig& s : seen_) {  // exact compare on signature hit
    if (s.hash == h && arena_[s.slot] == nodes) return false;
  }
  seen_.push_back(
      SeenSig{h, static_cast<std::uint32_t>(slot)});
  return true;
}

bool KspSolver::spur_search(std::size_t spur, std::size_t dst,
                            WeightedPath* out) {
  // Stitch path: answer from the cached per-node trees when the best
  // first hop wins strictly and its tree continuation is clean.
  bool unreachable = false;
  double bound = kInf;
  if (stitch_search(spur, dst, out, &unreachable, &bound)) {
    return !unreachable;
  }

  // Slow path: banned Dijkstra with early exit at dst, pruned by the
  // stitch's best clean candidate when it found one.
  CoreBans bans;
  bans.banned_node = ws_.banned_node.data();
  bans.banned_next = &ws_.banned_next;
  if (bound < kInf) {
    bans.h_to_dst = tree_dist_t_.data() + dst * n_;
    bans.h_built = tree_built_.data();
    // Margin: nd + h(v) re-sums a path the final chain accumulates
    // left-to-right, so on the chain the two sums agree only to within
    // a few ulps of rounding — and the bound frequently *equals* the
    // final distance. Pruning less is always safe; pad the bound by
    // far more than the worst-case re-summation error so chain writes
    // are never pruned (with integer weights the sums are exact and
    // the pad merely relaxes the cut).
    bans.prune_bound = bound + 1e-12 * (bound + 1.0);
  }
  dijkstra_core(g_->csr(), n_, spur, dst, bans, ws_.dist.data(),
                ws_.prev.data(), ws_.settled.data(), &ws_.frontier,
                &ws_.touched);
  if (ws_.dist[dst] == kInf) return false;
  out->cost = ws_.dist[dst];
  extract_path(ws_.prev.data(), spur, dst, &out->nodes);
  return true;
}

bool KspSolver::stitch_search(std::size_t spur, std::size_t dst,
                              WeightedPath* out, bool* unreachable,
                              double* bound) {
  // A banned spur search is a multi-source Dijkstra over the allowed
  // first hops: relaxing the spur seeds every unbanned neighbor v with
  // d(v) = w(spur,v) and the search proceeds obliviously to which hop
  // seeded what. Since the solver caches the unrestricted tree of every
  // node, each hop's best *unrestricted* continuation is already known:
  //   stitch(v) = leftfold(w(spur,v), tree path v..dst)
  // re-accumulated left-to-right — the exact addition order Dijkstra
  // uses, so the bits match the reference when the path is usable.
  //
  // If the minimal stitch belongs to a hop whose tree path avoids every
  // banned node and the spur itself ("clean"), and it beats every other
  // hop's lower bound strictly (clean stitches are exact values, dirty
  // ones lower-bound the true banned cost via that hop), then the
  // banned Dijkstra provably returns that very path: any equal-cost
  // rival write into the winning chain would imply a rival path of cost
  // <= the winner, contradicting strictness — so every dist/prev write
  // along the chain comes from the winning hop's own relaxations, in
  // tree order. Exact ties and threatening dirty hops fall back to the
  // real banned Dijkstra (returns false). The argument is exact under
  // error-free arithmetic (the crafted tie tests use small integers,
  // where double arithmetic is exact); with rounding, cross-hop
  // comparisons could in principle mis-order sums within an ulp — the
  // random-weight case, where sums never land that close.
  *unreachable = false;
  *bound = kInf;
  const auto& csr = g_->csr();
  const std::uint32_t row_end = csr.row_start[spur + 1];
  double best = kInf;          // minimal clean stitch (exact value)
  std::size_t best_v = n_;
  bool tie = false;            // exact tie on the current best
  double dirty_lb = kInf;      // minimal lower bound among dirty hops
  // Classification of one surviving hop: walk its tree path for
  // cleanliness, then re-fold the exact cost. The final best/tie/
  // dirty_lb triple is visit-order independent (best is a min, tie
  // means >= 2 hops achieve it, and a dirty hop is recorded iff its
  // bound can threaten the final best), which is what licenses the two
  // scan shapes below to share it.
  const auto consider = [&](double w, std::uint32_t v, double quick) {
    const std::uint32_t* pv =
        tree_prev_.data() + static_cast<std::size_t>(v) * n_;
    bool clean = true;
    stitch_nodes_.clear();
    for (std::size_t cur = dst; cur != v;) {
      if (cur == spur || ws_.banned_node[cur] != 0) {
        clean = false;
        break;
      }
      stitch_nodes_.push_back(cur);
      cur = pv[cur];
    }
    if (!clean) {
      if (quick < dirty_lb) dirty_lb = quick;
      return;
    }
    double c = w;
    std::size_t from = v;
    for (std::size_t j = stitch_nodes_.size(); j-- > 0;) {
      c += g_->weight(from, stitch_nodes_[j]);
      from = stitch_nodes_[j];
    }
    if (c < best) {
      best = c;
      best_v = v;
      tie = false;
    } else if (c == best) {
      tie = true;
    }
  };
  if (built_count_ == n_) {
    // Steady state (every tree cached): mask the banned hops'
    // transposed cells with +inf up front, so the hot loop runs with no
    // per-hop ban or cache checks — the dense weight row and the
    // transposed dist column stream sequentially (no CSR column
    // gather), leaving one add, one compare, one predictable branch per
    // hop. Banned hops never contribute to best/tie/dirty_lb, so
    // masking them is behavior-free; the undo log restores the cells
    // (in reverse, in case a hop was masked twice).
    double* dtm = tree_dist_t_.data() + dst * n_;
    mask_saved_.clear();
    const auto mask_hop = [&](std::uint32_t v) {
      mask_saved_.push_back(Cand{dtm[v], v});
      dtm[v] = kInf;
    };
    for (const std::uint32_t v : banned_roots_) mask_hop(v);
    for (const std::uint32_t v : ws_.banned_next) mask_hop(v);
    for (std::uint32_t e = csr.row_start[spur]; e < row_end; ++e) {
      const std::uint32_t v = csr.col[e];
      const double dvd = dtm[v];
      if (dvd == kInf) continue;  // masked, or cannot reach dst at all
      // Strictly-worse hops can't affect the outcome (their true banned
      // cost is bounded below by this sum); skip the walk.
      const double quick = csr.weight[e] + dvd;
      if (quick > best) continue;
      consider(csr.weight[e], v, quick);
    }
    for (std::size_t j = mask_saved_.size(); j-- > 0;) {
      dtm[mask_saved_[j].slot] = mask_saved_[j].cost;
    }
  } else {
    // Cold path: trees may still be missing; check bans per hop.
    const double* dt = tree_dist_t_.data() + dst * n_;
    for (std::uint32_t e = csr.row_start[spur]; e < row_end; ++e) {
      const std::uint32_t v = csr.col[e];
      if (ws_.banned_node[v] != 0) continue;
      if (tree_built_[v] == 0) ensure_tree(v);
      const double dvd = dt[v];
      if (dvd == kInf) continue;  // hop cannot reach dst at all
      const double quick = csr.weight[e] + dvd;
      if (quick > best) continue;
      bool banned = false;
      for (const std::uint32_t b : ws_.banned_next) {
        if (b == v) {
          banned = true;
          break;
        }
      }
      if (banned) continue;
      consider(csr.weight[e], v, quick);
    }
  }
  *bound = best;  // a valid banned-graph path cost (or +inf)
  if (best_v == n_) {
    if (dirty_lb == kInf) {
      // No first hop reaches dst even unrestricted => unreachable in
      // the (more constrained) banned graph too.
      *unreachable = true;
      return true;
    }
    return false;  // only dirty hops left; need the real search
  }
  if (tie || dirty_lb <= best) return false;
  // Re-walk the winner (the scratch walk above may have been
  // overwritten by later candidates).
  const std::uint32_t* pv =
      tree_prev_.data() + static_cast<std::size_t>(best_v) * n_;
  stitch_nodes_.clear();
  for (std::size_t cur = dst; cur != best_v; cur = pv[cur]) {
    stitch_nodes_.push_back(cur);
  }
  out->cost = best;
  out->nodes.clear();
  out->nodes.reserve(stitch_nodes_.size() + 2);
  out->nodes.push_back(spur);
  out->nodes.push_back(best_v);
  for (std::size_t j = stitch_nodes_.size(); j-- > 0;) {
    out->nodes.push_back(stitch_nodes_[j]);
  }
  return true;
}

std::size_t KspSolver::k_shortest_scratch(std::size_t dst, std::size_t k) {
  arena_used_ = 0;
  accepted_.clear();
  heap_.clear();
  seen_.clear();
  if (k == 0) return 0;

  // First (shortest) path, read off the source tree into an arena
  // slot.
  if (!src_set_ || dst >= n_) return 0;
  {
    const std::size_t slot = acquire_slot();
    std::vector<std::size_t>& nodes = arena_[slot];
    double cost = 0.0;
    if (dst == src_) {
      nodes.push_back(src_);
    } else {
      const double* d = tree_dist_.data() + src_ * n_;
      if (d[dst] == kInf) return 0;
      cost = d[dst];
      extract_path(tree_prev_.data() + src_ * n_, src_, dst, &nodes);
    }
    accepted_.push_back(Cand{cost, static_cast<std::uint32_t>(slot)});
    seen_insert(slot);
  }

  // Candidate pool: manual binary heap replicating
  // std::priority_queue's push/pop (push_back + push_heap, pop_heap +
  // pop_back with the same cost-only comparator), so equal-cost
  // candidates pop in the reference's order. The sift path of
  // push/pop_heap is decided by comparator outcomes alone, and the
  // comparator reads only the cost — moving slot handles instead of
  // whole WeightedPaths cannot reorder anything.
  const auto cost_greater = [](const Cand& a, const Cand& b) {
    return a.cost > b.cost;
  };

  while (accepted_.size() < k) {
    const std::vector<std::size_t>& last = arena_[accepted_.back().slot];
    double root_cost = 0.0;  // running prefix sum, same addition order
                             // as the reference's per-spur rescan
    for (std::size_t i = 0; i + 1 < last.size(); ++i) {
      const std::size_t spur = last[i];
      // Banned first hops: edges used by earlier accepted paths sharing
      // this root (they all start at the spur node).
      ws_.banned_next.clear();
      for (const Cand& acc : accepted_) {
        const std::vector<std::size_t>& pth = arena_[acc.slot];
        if (pth.size() > i + 1 &&
            std::equal(last.begin(),
                       last.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       pth.begin())) {
          ws_.banned_next.push_back(static_cast<std::uint32_t>(pth[i + 1]));
        }
      }
      // Ban root nodes (except the spur) to keep paths loopless. The
      // list mirror of the byte map feeds the stitch scan's masking.
      banned_roots_.clear();
      for (std::size_t j = 0; j < i; ++j) {
        ws_.banned_node[last[j]] = 1;
        banned_roots_.push_back(static_cast<std::uint32_t>(last[j]));
      }
      const bool found = spur_search(spur, dst, &spur_path_);
      for (std::size_t j = 0; j < i; ++j) ws_.banned_node[last[j]] = 0;

      if (found) {
        // Arena slots are deque elements: acquiring one never moves
        // `last` or any other live slot.
        const std::size_t slot = acquire_slot();
        std::vector<std::size_t>& total = arena_[slot];
        total.reserve(i + spur_path_.nodes.size());
        total.assign(last.begin(),
                     last.begin() + static_cast<std::ptrdiff_t>(i));
        total.insert(total.end(), spur_path_.nodes.begin(),
                     spur_path_.nodes.end());
        if (seen_insert(slot)) {
          heap_.push_back(
              Cand{root_cost + spur_path_.cost,
                   static_cast<std::uint32_t>(slot)});
          std::push_heap(heap_.begin(), heap_.end(), cost_greater);
        } else {
          --arena_used_;  // duplicate: hand the slot straight back
        }
      }
      root_cost += g_->weight(last[i], last[i + 1]);
    }
    if (heap_.empty()) break;
    std::pop_heap(heap_.begin(), heap_.end(), cost_greater);
    accepted_.push_back(heap_.back());
    heap_.pop_back();
  }
  return accepted_.size();
}

}  // namespace livenet::brain
