// Microbenchmark: Global Routing recompute cost — Yen's KSP over all
// node pairs as a function of overlay size, for the paper's k = 3 and
// the tree-only k = 1, plus the preserved reference pipeline for
// like-for-like speedup numbers.
// The 600-node arguments match the paper's deployment scale (§4.3).
// The main recompute sweep carries a threads axis (the Parallel Brain
// fan-out); output is byte-identical across thread counts, so the axis
// measures pure wall-clock scaling.
#include <benchmark/benchmark.h>

#include "bench_main.h"
#include "brain/global_routing.h"
#include "routing_oracle.h"
#include "util/rng.h"

namespace {

using namespace livenet;
using namespace livenet::brain;

GlobalDiscovery make_view(int n, std::uint64_t seed) {
  Rng rng(seed);
  GlobalDiscovery view;
  for (int a = 0; a < n; ++a) {
    overlay::NodeStateReport rep;
    rep.node = a;
    rep.node_load = rng.uniform(0.05, 0.6);
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      overlay::LinkReport lr;
      lr.to = b;
      lr.rtt = static_cast<Duration>(rng.uniform(10.0, 300.0) *
                                     static_cast<double>(kMs));
      lr.loss_rate = rng.uniform(0.0, 0.002);
      lr.utilization = rng.uniform(0.0, 0.7);
      rep.links.push_back(lr);
    }
    view.on_report(rep, 0, nullptr);
  }
  return view;
}

std::vector<sim::NodeId> make_nodes(int n) {
  std::vector<sim::NodeId> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nodes.push_back(i);
  return nodes;
}

// Steady-state routing cycle: the module persists across cycles (as in
// BrainNode), so one untimed seed cycle sizes its allocations. Every
// timed iteration then measures the recurring cycle cost every run
// pays: the graph and all shortest-path trees rebuilt, no allocation
// grown. The reference benchmark below has no persistent state, so its
// numbers are unaffected by this shape.
void BM_GlobalRoutingRecompute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GlobalDiscovery view = make_view(n, 7);
  const auto nodes = make_nodes(n);
  GlobalRoutingConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(1));
  GlobalRouting routing(cfg);
  {
    Pib seed;
    routing.recompute(view, nodes, {}, &seed);
  }
  for (auto _ : state) {
    Pib pib;
    const auto res = routing.recompute(view, nodes, {}, &pib);
    benchmark::DoNotOptimize(res.paths_installed);
  }
  state.counters["pairs"] = static_cast<double>(n) * (n - 1);
}
BENCHMARK(BM_GlobalRoutingRecompute)
    ->ArgNames({"", "threads"})
    ->Args({10, 1})->Args({20, 1})->Args({40, 1})->Args({60, 1})
    ->Args({120, 1})->Args({240, 1})->Args({600, 1})
    ->Args({60, 4})
    ->Args({600, 2})->Args({600, 4})->Args({600, 8})
    ->Unit(benchmark::kMillisecond);

// The pre-optimization per-pair pipeline, kept as the differential
// oracle — benchmarked at the old sizes for like-for-like comparison.
void BM_GlobalRoutingRecomputeRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GlobalDiscovery view = make_view(n, 7);
  const auto nodes = make_nodes(n);
  const GlobalRoutingConfig cfg;
  for (auto _ : state) {
    Pib pib;
    const auto res = recompute_reference(cfg, view, nodes, {}, &pib);
    benchmark::DoNotOptimize(res.paths_installed);
  }
  state.counters["pairs"] = static_cast<double>(n) * (n - 1);
}
BENCHMARK(BM_GlobalRoutingRecomputeRef)
    ->Arg(10)->Arg(20)->Arg(40)->Arg(60)
    ->Unit(benchmark::kMillisecond);

// k = 1: one shortest-path tree per source, no spur searches — the
// configuration repro_scale runs at deployment scale.
void BM_GlobalRoutingRecomputeK1(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const GlobalDiscovery view = make_view(n, 7);
  const auto nodes = make_nodes(n);
  GlobalRoutingConfig cfg;
  cfg.k = 1;
  GlobalRouting routing(cfg);
  for (auto _ : state) {
    Pib pib;
    const auto res = routing.recompute(view, nodes, {}, &pib);
    benchmark::DoNotOptimize(res.paths_installed);
  }
  state.counters["pairs"] = static_cast<double>(n) * (n - 1);
}
BENCHMARK(BM_GlobalRoutingRecomputeK1)
    ->Arg(120)->Arg(240)->Arg(600)
    ->Unit(benchmark::kMillisecond);

void BM_LinkWeight(benchmark::State& state) {
  LinkState ls;
  ls.rtt = 80 * livenet::kMs;
  ls.loss_rate = 0.001;
  ls.utilization = 0.42;
  double u = 0.3;
  for (auto _ : state) {
    u = u < 0.9 ? u + 1e-6 : 0.3;
    benchmark::DoNotOptimize(link_weight(ls, u, 0.2));
  }
}
BENCHMARK(BM_LinkWeight);

}  // namespace

LIVENET_BENCHMARK_MAIN();
