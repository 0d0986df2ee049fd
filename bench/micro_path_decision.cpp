// Microbenchmark: Path Decision lookups — the paper claims "the path
// lookup takes only a few milliseconds" end to end, with the in-memory
// hash lookups themselves far cheaper. Also benches SIB updates and
// PIB overload mark/clear.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "brain/path_decision.h"
#include "util/rng.h"

namespace {

using namespace livenet;
using namespace livenet::brain;

struct Fixture {
  Pib pib;
  Sib sib;
  std::vector<media::StreamId> streams;
  std::vector<sim::NodeId> nodes;

  explicit Fixture(int n_nodes = 60, int n_streams = 5000) {
    Rng rng(3);
    for (int i = 0; i < n_nodes; ++i) nodes.push_back(i);
    for (int a = 0; a < n_nodes; ++a) {
      for (int b = 0; b < n_nodes; ++b) {
        if (a == b) continue;
        const sim::NodeId relay =
            static_cast<sim::NodeId>(rng.index(nodes.size()));
        pib.set_paths(a, b,
                      {{a, relay, b}, {a, (relay + 1) % n_nodes, b}, {a, b}});
        pib.set_last_resort(a, b, {a, relay, b});
      }
    }
    for (int s = 1; s <= n_streams; ++s) {
      streams.push_back(static_cast<media::StreamId>(s));
      sib.set_producer(static_cast<media::StreamId>(s),
                       static_cast<sim::NodeId>(rng.index(nodes.size())));
    }
  }
};

/// The request path as the Brain runs it: SIB probe, PIB probe and the
/// overload filter over the candidates (no marks live).
void BM_PathLookup(benchmark::State& state) {
  Fixture fx;
  PathDecision pd(&fx.pib, &fx.sib);
  Rng rng(9);
  for (auto _ : state) {
    const media::StreamId s = fx.streams[rng.index(fx.streams.size())];
    const sim::NodeId consumer =
        static_cast<sim::NodeId>(rng.index(fx.nodes.size()));
    benchmark::DoNotOptimize(pd.get_path(s, consumer).paths.size());
  }
}
BENCHMARK(BM_PathLookup);

void BM_PathLookupWithOverloads(benchmark::State& state) {
  Fixture fx;
  // A handful of real-time overload marks to filter against.
  for (int i = 0; i < 6; ++i) fx.pib.mark_node_overloaded(i * 7 % 60);
  PathDecision pd(&fx.pib, &fx.sib);
  Rng rng(10);
  for (auto _ : state) {
    const media::StreamId s = fx.streams[rng.index(fx.streams.size())];
    benchmark::DoNotOptimize(
        pd.get_path(s, static_cast<sim::NodeId>(rng.index(fx.nodes.size())))
            .paths.size());
  }
}
BENCHMARK(BM_PathLookupWithOverloads);

void BM_SibUpdate(benchmark::State& state) {
  Sib sib;
  media::StreamId s = 1;
  for (auto _ : state) {
    sib.set_producer(s, static_cast<sim::NodeId>(s % 60));
    if (s > 10000) sib.erase(s - 10000);
    ++s;
  }
}
BENCHMARK(BM_SibUpdate);

void BM_PibInvalidate(benchmark::State& state) {
  Fixture fx;
  int i = 0;
  for (auto _ : state) {
    fx.pib.mark_node_overloaded(i % 60);
    fx.pib.clear_node_overloaded((i + 30) % 60);
    ++i;
  }
}
BENCHMARK(BM_PibInvalidate);

}  // namespace

LIVENET_BENCHMARK_MAIN();
