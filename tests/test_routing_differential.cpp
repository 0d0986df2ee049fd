// Differential tests for the optimized Brain routing pipeline: the
// CSR/workspace/batched-KSP implementation must be *bit-identical* to
// the preserved reference implementation — same paths, same order, same
// double costs — on a fresh module and on long-lived ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "brain/global_discovery.h"
#include "brain/global_routing.h"
#include "brain/ksp.h"
#include "brain/pib.h"
#include "graph_builder.h"
#include "routing_oracle.h"
#include "util/rng.h"

namespace livenet::brain {
namespace {

struct ViewSpec {
  int n = 12;           ///< regular overlay nodes (ids 0..n-1)
  int lr = 0;           ///< extra last-resort relays (ids n..n+lr-1)
  double link_prob = 1.0;
  double util_lo = 0.0, util_hi = 0.7;
  double load_lo = 0.05, load_hi = 0.6;
  std::uint64_t seed = 1;
};

GlobalDiscovery make_view(const ViewSpec& s) {
  Rng rng(s.seed);
  GlobalDiscovery view;
  const int total = s.n + s.lr;
  for (int a = 0; a < total; ++a) {
    overlay::NodeStateReport rep;
    rep.node = a;
    rep.node_load = rng.uniform(s.load_lo, s.load_hi);
    for (int b = 0; b < total; ++b) {
      if (a == b) continue;
      // Relay links always exist (they are the safety net); regular
      // links thin out with link_prob.
      const bool relay_edge = a >= s.n || b >= s.n;
      if (!relay_edge && rng.uniform(0.0, 1.0) > s.link_prob) continue;
      overlay::LinkReport lr;
      lr.to = b;
      lr.rtt = static_cast<Duration>(rng.uniform(10.0, 300.0) *
                                     static_cast<double>(kMs));
      lr.loss_rate = rng.uniform(0.0, 0.01);
      lr.utilization = rng.uniform(s.util_lo, s.util_hi);
      rep.links.push_back(lr);
    }
    view.on_report(rep, 0, nullptr);
  }
  return view;
}

std::vector<sim::NodeId> id_range(int lo, int hi) {
  std::vector<sim::NodeId> out;
  for (int i = lo; i < hi; ++i) out.push_back(i);
  return out;
}

void expect_paths_equal(const std::vector<WeightedPath>& got,
                        const std::vector<WeightedPath>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].nodes, want[i].nodes) << "path " << i;
    EXPECT_EQ(got[i].cost, want[i].cost) << "path " << i;  // exact bits
  }
}

void expect_pib_routes_equal(const Pib& got, const Pib& want) {
  auto gp = got.pairs();
  auto wp = want.pairs();
  std::sort(gp.begin(), gp.end());
  std::sort(wp.begin(), wp.end());
  ASSERT_EQ(gp, wp);
  for (const auto& [src, dst] : wp) {
    const auto* g = got.find(src, dst);
    const auto* w = want.find(src, dst);
    ASSERT_NE(g, nullptr);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(*g, *w) << "pair " << src << "->" << dst;
    EXPECT_EQ(got.last_resort(src, dst), want.last_resort(src, dst))
        << "fallback " << src << "->" << dst;
  }
}

bool pib_routes_differ(const Pib& a, const Pib& b) {
  if (a.pair_count() != b.pair_count()) return true;
  for (const auto& [src, dst] : a.pairs()) {
    const auto* pb = b.find(src, dst);
    if (pb == nullptr || *pb != *a.find(src, dst) ||
        a.last_resort(src, dst) != b.last_resort(src, dst)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// KSP layer.

TEST(KspDifferential, BatchedMatchesReferenceOnRandomGraphs) {
  for (const double link_prob : {1.0, 0.5}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      ViewSpec spec;
      spec.n = 14;
      spec.link_prob = link_prob;
      spec.seed = seed;
      const GlobalDiscovery view = make_view(spec);
      const auto nodes = id_range(0, spec.n);
      const RoutingGraph g = GlobalRouting().build_graph(view, nodes);
      for (std::size_t a = 0; a < nodes.size(); ++a) {
        for (std::size_t b = 0; b < nodes.size(); ++b) {
          if (a == b) continue;
          expect_paths_equal(k_shortest_paths(g, a, b, 3),
                             k_shortest_paths_reference(g, a, b, 3));
        }
      }
    }
  }
}

TEST(KspDifferential, SolverReuseAcrossDestinationsMatchesReference) {
  ViewSpec spec;
  spec.n = 16;
  spec.link_prob = 0.6;
  spec.seed = 9;
  const GlobalDiscovery view = make_view(spec);
  const auto nodes = id_range(0, spec.n);
  const RoutingGraph g = GlobalRouting().build_graph(view, nodes);
  // One solver reused for every destination — the production shape.
  KspSolver solver(g);
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    solver.set_source(a);
    for (std::size_t b = 0; b < nodes.size(); ++b) {
      if (a == b) continue;
      const std::size_t cnt = solver.k_shortest_scratch(b, 3);
      std::vector<WeightedPath> got;
      for (std::size_t i = 0; i < cnt; ++i) {
        got.push_back({solver.accepted_nodes(i), solver.accepted_cost(i)});
      }
      expect_paths_equal(got, k_shortest_paths_reference(g, a, b, 3));
    }
  }
}

TEST(KspDifferential, HigherKMatchesReference) {
  ViewSpec spec;
  spec.n = 10;
  spec.seed = 4;
  const GlobalDiscovery view = make_view(spec);
  const auto nodes = id_range(0, spec.n);
  const RoutingGraph g = GlobalRouting().build_graph(view, nodes);
  expect_paths_equal(k_shortest_paths(g, 0, 9, 6),
                     k_shortest_paths_reference(g, 0, 9, 6));
}

// k = 1 reads the first path off the solver's source tree; it must be
// the reference tree's path to every destination, cost bits included.
TEST(KspDifferential, FirstPathMatchesReferenceTreeBitForBit) {
  for (const std::uint64_t seed : {5ull, 6ull}) {
    ViewSpec spec;
    spec.n = 18;
    spec.link_prob = 0.4;
    spec.seed = seed;
    const GlobalDiscovery view = make_view(spec);
    const auto nodes = id_range(0, spec.n);
    const RoutingGraph g = GlobalRouting().build_graph(view, nodes);
    KspSolver solver(g);
    for (std::size_t src = 0; src < nodes.size(); ++src) {
      solver.set_source(src);
      const ShortestPathTree want = shortest_path_tree_reference(g, src);
      for (std::size_t v = 0; v < nodes.size(); ++v) {
        const auto ref = want.path_to(src, v);
        const std::size_t cnt = solver.k_shortest_scratch(v, 1);
        ASSERT_EQ(cnt, ref.has_value() ? 1u : 0u) << src << "->" << v;
        if (cnt == 0) continue;
        EXPECT_EQ(solver.accepted_nodes(0), ref->nodes) << src << "->" << v;
        EXPECT_EQ(solver.accepted_cost(0), ref->cost) << src << "->" << v;
      }
    }
  }
}

TEST(KspTieBreak, EqualCostPathsComeBackInDeterministicOrder) {
  // Three exactly equal-cost routes 0->3: via 1, via 2, and direct.
  const RoutingGraph g = make_graph(
      4, {{0, 1, 10.0}, {1, 3, 10.0}, {0, 2, 10.0}, {2, 3, 10.0},
          {0, 3, 20.0}});
  const auto first = k_shortest_paths(g, 0, 3, 3);
  const auto second = k_shortest_paths(g, 0, 3, 3);
  ASSERT_EQ(first.size(), 3u);
  for (const auto& p : first) EXPECT_EQ(p.cost, 20.0);
  // Deterministic: identical across runs and identical to the oracle.
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].nodes, second[i].nodes);
  }
  expect_paths_equal(first, k_shortest_paths_reference(g, 0, 3, 3));
  // The shared tie-break discipline: strict-improvement relaxation
  // keeps the first route found (the direct edge, relaxed in ascending
  // neighbor order), then spur candidates tie-break by lowest index.
  EXPECT_EQ(first[0].nodes, (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(first[1].nodes, (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(first[2].nodes, (std::vector<std::size_t>{0, 2, 3}));
}

// ---------------------------------------------------------------------------
// Full-pipeline PIB differential.

struct PibCase {
  const char* name;
  ViewSpec spec;
  std::size_t k = 3;
};

TEST(PibDifferential, RecomputeInstallsIdenticalPibToReference) {
  std::vector<PibCase> cases;
  {
    PibCase c{"dense", ViewSpec{}, 3};
    c.spec.n = 12;
    c.spec.seed = 21;
    cases.push_back(c);
  }
  {
    PibCase c{"sparse", ViewSpec{}, 3};
    c.spec.n = 14;
    c.spec.link_prob = 0.35;
    c.spec.seed = 22;
    cases.push_back(c);
  }
  {
    PibCase c{"hot", ViewSpec{}, 3};  // overloads trip constraints (i)/(ii)
    c.spec.n = 12;
    c.spec.util_lo = 0.5;
    c.spec.util_hi = 0.95;
    c.spec.load_lo = 0.4;
    c.spec.load_hi = 0.95;
    c.spec.lr = 2;
    c.spec.seed = 23;
    cases.push_back(c);
  }
  {
    PibCase c{"k1", ViewSpec{}, 1};
    c.spec.n = 16;
    c.spec.link_prob = 0.5;
    c.spec.seed = 24;
    cases.push_back(c);
  }
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const GlobalDiscovery view = make_view(c.spec);
    const auto nodes = id_range(0, c.spec.n);
    const auto relays = id_range(c.spec.n, c.spec.n + c.spec.lr);
    GlobalRoutingConfig cfg;
    cfg.k = c.k;
    GlobalRouting optimized(cfg);
    Pib got, want;
    const auto res = optimized.recompute(view, nodes, relays, &got);
    const auto ref = recompute_reference(cfg, view, nodes, relays, &want);
    EXPECT_EQ(res.pairs, ref.pairs);
    EXPECT_EQ(res.paths_installed, ref.paths_installed);
    EXPECT_EQ(res.last_resort_pairs, ref.last_resort_pairs);
    expect_pib_routes_equal(got, want);
  }
}

TEST(PibDifferential, ShrinkingNodeSetAgesOutStalePairs) {
  ViewSpec spec;
  spec.n = 8;
  spec.seed = 41;
  const GlobalDiscovery view = make_view(spec);
  GlobalRouting routing;
  Pib pib;
  routing.recompute(view, id_range(0, 8), {}, &pib);
  EXPECT_EQ(pib.pair_count(), 8u * 7u);
  // A long-lived module whose node set shrinks installs only the
  // surviving pairs: the removed node's routes do not linger.
  routing.recompute(view, id_range(0, 7), {}, &pib);
  EXPECT_EQ(pib.pair_count(), 7u * 6u);
}

TEST(PibBuffer, SwapRoutesPreservesOverloadMarks) {
  Pib live, scratch;
  live.mark_node_overloaded(7);
  live.set_paths(1, 2, {{1, 2}});
  scratch.set_paths(1, 2, {{1, 3, 2}});
  scratch.set_last_resort(1, 2, {1, 9, 2});
  live.swap_routes(&scratch);
  EXPECT_TRUE(live.node_overloaded(7));
  ASSERT_NE(live.find(1, 2), nullptr);
  EXPECT_EQ(*live.find(1, 2),
            (std::vector<overlay::Path>{{1, 3, 2}}));
  EXPECT_EQ(live.last_resort(1, 2), (overlay::Path{1, 9, 2}));
  ASSERT_NE(scratch.find(1, 2), nullptr);
  EXPECT_EQ(*scratch.find(1, 2), (std::vector<overlay::Path>{{1, 2}}));
}

TEST(CsrView, MatchesDenseMatrixAcrossRebuilds) {
  ViewSpec spec;
  spec.n = 12;
  spec.link_prob = 0.5;
  spec.seed = 51;
  const GlobalDiscovery view = make_view(spec);
  const auto nodes = id_range(0, spec.n);
  RoutingGraph g = GlobalRouting().build_graph(view, nodes);
  auto check = [&] {
    const auto& csr = g.csr();
    std::size_t edges = 0;
    for (std::size_t a = 0; a < g.size(); ++a) {
      std::uint32_t prev_col = 0;
      bool first = true;
      for (std::uint32_t e = csr.row_start[a]; e < csr.row_start[a + 1];
           ++e) {
        const std::uint32_t b = csr.col[e];
        if (!first) {
          EXPECT_GT(b, prev_col);  // ascending columns
        }
        first = false;
        prev_col = b;
        EXPECT_TRUE(g.has_edge(a, b));
        EXPECT_EQ(csr.weight[e], g.weight(a, b));
        ++edges;
      }
    }
    EXPECT_EQ(edges, csr.edge_count());
    std::size_t dense_edges = 0;
    for (std::size_t a = 0; a < g.size(); ++a) {
      for (std::size_t b = 0; b < g.size(); ++b) {
        if (g.has_edge(a, b)) ++dense_edges;
      }
    }
    EXPECT_EQ(dense_edges, csr.edge_count());
  };
  check();
  // Each rebuild_from rebuilds the CSR view: one weight moved and one
  // edge gone, then a smaller node set.
  const std::size_t n = g.size();
  std::vector<double> cells(g.row(0), g.row(0) + n * n);
  cells[0 * n + 1] = 123.0;
  cells[2 * n + 3] = RoutingGraph::kNoEdge;
  g.rebuild_from(n, &cells);
  check();
  EXPECT_EQ(g.weight(0, 1), 123.0);
  EXPECT_FALSE(g.has_edge(2, 3));
  const std::size_t m = 5;
  cells.assign(m * m, RoutingGraph::kNoEdge);
  cells[1 * m + 4] = 7.0;
  cells[4 * m + 0] = 9.0;
  g.rebuild_from(m, &cells);
  check();
  EXPECT_EQ(g.size(), m);
  EXPECT_EQ(g.csr().edge_count(), 2u);
}

// ---------------------------------------------------------------------------
// Parallel Brain: the thread-pooled fan-out must be byte-identical to
// the preserved reference pipeline for every thread count — the ordered
// merge is the only thing standing between worker scheduling and the
// installed PIB.

TEST(ThreadSweep, FullRecomputeBitIdenticalAcrossThreadCounts) {
  std::vector<PibCase> cases;
  {
    PibCase c{"dense", ViewSpec{}, 3};
    c.spec.n = 12;
    c.spec.seed = 61;
    cases.push_back(c);
  }
  {
    PibCase c{"sparse+relays", ViewSpec{}, 3};
    c.spec.n = 14;
    c.spec.link_prob = 0.35;
    c.spec.lr = 2;
    c.spec.seed = 62;
    cases.push_back(c);
  }
  {
    PibCase c{"hot", ViewSpec{}, 3};  // overloads exercise the
    c.spec.n = 12;                    // last-resort path of the merge
    c.spec.util_lo = 0.5;
    c.spec.util_hi = 0.95;
    c.spec.load_lo = 0.4;
    c.spec.load_hi = 0.95;
    c.spec.lr = 2;
    c.spec.seed = 63;
    cases.push_back(c);
  }
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const GlobalDiscovery view = make_view(c.spec);
    const auto nodes = id_range(0, c.spec.n);
    const auto relays = id_range(c.spec.n, c.spec.n + c.spec.lr);
    GlobalRoutingConfig cfg;
    cfg.k = c.k;
    Pib want;
    const auto ref = recompute_reference(cfg, view, nodes, relays, &want);
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      cfg.threads = threads;
      GlobalRouting routing(cfg);
      Pib got;
      const auto res = routing.recompute(view, nodes, relays, &got);
      EXPECT_EQ(res.pairs, ref.pairs);
      EXPECT_EQ(res.paths_installed, ref.paths_installed);
      EXPECT_EQ(res.last_resort_pairs, ref.last_resort_pairs);
      expect_pib_routes_equal(got, want);
    }
  }
}

TEST(ThreadSweep, ChurnSequenceBitIdenticalAcrossThreadCounts) {
  // One long-lived module per thread count, each fed an identical view
  // and an identical churn sequence, so the per-worker solvers are
  // rebound from cycle to cycle with their allocations kept. Every
  // cycle's installed PIB must match the threads=1 instance and a
  // from-scratch reference solve — including the untouched cycles,
  // which rebuild the same graph and re-solve it from cold trees.
  const int n = 12;
  const std::vector<std::size_t> sweep{1, 2, 4, 8};
  ViewSpec spec;
  spec.n = n;
  spec.link_prob = 0.6;
  spec.seed = 64;
  GlobalRoutingConfig cfg;
  std::vector<GlobalDiscovery> views;
  std::vector<GlobalRouting> routings;
  std::vector<Pib> pibs(sweep.size());
  for (const std::size_t threads : sweep) {
    views.push_back(make_view(spec));
    cfg.threads = threads;
    routings.emplace_back(cfg);
  }
  const auto nodes = id_range(0, n);
  Pib first_cycle;
  bool routes_moved = false;
  for (int cycle = 0; cycle < 8; ++cycle) {
    SCOPED_TRACE("cycle=" + std::to_string(cycle));
    // Deterministic churn, applied identically to every instance: two
    // links of one node move each cycle, except every third cycle
    // which leaves the view untouched.
    if (cycle > 0 && cycle % 3 != 0) {
      const int victim = cycle % n;
      const double ms = 15.0 + 37.0 * cycle;
      for (auto& view : views) {
        overlay::NodeStateReport rep;
        rep.node = victim;
        rep.node_load = view.node_load(victim);
        for (int b = 1; b <= 2; ++b) {
          overlay::LinkReport lr;
          lr.to = (victim + b) % n;
          lr.rtt = static_cast<Duration>(ms * static_cast<double>(kMs));
          lr.loss_rate = 0.0005;
          lr.utilization = 0.3;
          rep.links.push_back(lr);
        }
        view.on_report(rep, 0, nullptr);
      }
    }
    std::vector<GlobalRouting::Result> results;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      results.push_back(routings[i].recompute(views[i], nodes, {}, &pibs[i]));
    }
    Pib want;
    const auto ref = recompute_reference(cfg, views[0], nodes, {}, &want);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(sweep[i]));
      EXPECT_EQ(results[i].sources_solved, results[0].sources_solved);
      EXPECT_EQ(results[i].pairs_solved, ref.pairs_solved);
      EXPECT_EQ(results[i].paths_installed, ref.paths_installed);
      EXPECT_EQ(results[i].last_resort_pairs, ref.last_resort_pairs);
      expect_pib_routes_equal(pibs[i], pibs[0]);
      expect_pib_routes_equal(pibs[i], want);
    }
    if (cycle == 0) {
      first_cycle = want;
    } else if (pib_routes_differ(want, first_cycle)) {
      routes_moved = true;
    }
  }
  // The churn must actually have moved installed routes.
  EXPECT_TRUE(routes_moved);
}

}  // namespace
}  // namespace livenet::brain
