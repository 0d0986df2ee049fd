// Microbenchmarks of the telemetry layer: registry handle updates,
// trace-ring appends, and — the number the ISSUE gates on — the
// fast-path fan-out loop at 0% / 1% / 100% trace sampling, so the
// cost of observation is measured against the same work the
// BM_FibLookupAndForward baseline does with telemetry compiled in but
// idle.
#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "media/packetizer.h"
#include "overlay/stream_context.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

using namespace livenet;

media::RtpPacketPtr make_packet(media::StreamId s, media::Seq seq,
                                std::uint64_t trace_id = 0) {
  media::RtpBody body;
  body.stream_id = s;
  body.seq = seq;
  body.frame_type = media::FrameType::kP;
  body.frame_id = seq / 3 + 1;
  body.gop_id = seq / 150 + 1;
  body.frag_index = static_cast<std::uint32_t>(seq % 3);
  body.frag_count = 3;
  body.payload_bytes = 1200;
  body.trace_id = trace_id;
  return media::RtpPacket::make(std::move(body));
}

void BM_CounterAdd(benchmark::State& state) {
  // One pre-registered handle bump: the whole hot-path metrics cost.
  telemetry::Counter* c =
      telemetry::MetricsRegistry::instance().counter("bench.counter");
  for (auto _ : state) {
    c->add();
    benchmark::ClobberMemory();  // the increment must reach the handle
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_CounterAdd);

void BM_LatencyObserve(benchmark::State& state) {
  telemetry::LatencyStat* l = telemetry::MetricsRegistry::instance().latency(
      "bench.latency_ms", 0.0, 2000.0, 200);
  double v = 0.0;
  for (auto _ : state) {
    v += 0.37;
    if (v >= 2000.0) v = 0.0;
    l->observe(v);
  }
}
BENCHMARK(BM_LatencyObserve);

void BM_TracerRecord(benchmark::State& state) {
  // A raw ring append (the per-hop cost for a traced packet).
  telemetry::Tracer& tracer = telemetry::Tracer::instance();
  tracer.reset();
  std::uint64_t seq = 0;
  for (auto _ : state) {
    telemetry::record_hop(1, static_cast<Time>(seq), 7, seq, 3, 4,
                          telemetry::HopEvent::kForward);
    ++seq;
  }
  benchmark::DoNotOptimize(tracer.records_total());
  tracer.reset();
}
BENCHMARK(BM_TracerRecord);

void BM_FibForwardWithSampling(benchmark::State& state) {
  // The BM_FibLookupAndForward loop plus a sampler stamp and the
  // per-forward hop records traced packets take. Arg is the sampling
  // rate in 1/10000ths: 0 (off), 100 (1%), 10000 (100%).
  const double fraction = static_cast<double>(state.range(0)) / 10000.0;
  telemetry::Tracer::instance().reset();
  telemetry::TraceSampler sampler;
  sampler.set_fraction(fraction);

  overlay::StreamTable table;
  for (media::StreamId s = 1; s <= 200; ++s) {
    table.add_node_subscriber(s, static_cast<sim::NodeId>(s % 20));
    table.add_node_subscriber(s, static_cast<sim::NodeId>((s + 1) % 20));
  }
  table.add_node_subscriber(77, 5);
  media::Seq seq = 1;
  for (auto _ : state) {
    const auto pkt = make_packet(77, seq++, sampler.sample());
    const overlay::FibEntry* e = &table.find_context(pkt->stream_id())->fib;
    benchmark::DoNotOptimize(e);
    for (const auto n : e->subscriber_nodes) {
      auto clone = pkt->fork();
      clone->cdn_hops = static_cast<std::uint8_t>(pkt->cdn_hops + 1);
      telemetry::record_hop(clone->trace_id(), static_cast<Time>(seq),
                            clone->stream_id(), clone->seq, 3,
                            static_cast<std::int32_t>(n),
                            telemetry::HopEvent::kForward);
      benchmark::DoNotOptimize(clone->seq + static_cast<media::Seq>(n));
    }
  }
  if (media::RtpBody::deep_copy_count() != 0) {
    state.SkipWithError("fast path performed a body deep copy");
  }
  telemetry::Tracer::instance().reset();
}
BENCHMARK(BM_FibForwardWithSampling)->Arg(0)->Arg(100)->Arg(10000);

}  // namespace

LIVENET_BENCHMARK_MAIN();
