#include "telemetry/metrics.h"

#include <algorithm>

namespace livenet::telemetry {

MetricsRegistry& MetricsRegistry::instance() {
  // Per-thread: each shard records lock-free into its own registry and
  // the sharded runtime merges workers into the main thread's copy.
  static thread_local MetricsRegistry reg;
  return reg;
}

namespace {

template <typename T>
T* find_named(std::vector<std::pair<std::string, T*>>& names,
              const std::string& name) {
  for (auto& [n, p] : names) {
    if (n == name) return p;
  }
  return nullptr;
}

}  // namespace

Counter* MetricsRegistry::counter(const std::string& name) {
  if (Counter* c = find_named(counter_names_, name)) return c;
  counters_.emplace_back();
  counter_names_.emplace_back(name, &counters_.back());
  return &counters_.back();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  if (Gauge* g = find_named(gauge_names_, name)) return g;
  gauges_.emplace_back();
  gauge_names_.emplace_back(name, &gauges_.back());
  return &gauges_.back();
}

LatencyStat* MetricsRegistry::latency(const std::string& name, double lo,
                                      double hi, std::size_t buckets) {
  if (LatencyStat* l = find_named(latency_names_, name)) return l;
  latencies_.emplace_back(lo, hi, buckets);
  latency_names_.emplace_back(name, &latencies_.back());
  return &latencies_.back();
}

void MetricsRegistry::reset() {
  for (auto& c : counters_) c.reset();
  for (auto& g : gauges_) g.reset();
  for (auto& l : latencies_) l.reset();
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counter_names_) {
    counter(name)->add(c->value());
  }
  for (const auto& [name, g] : other.gauge_names_) {
    gauge(name)->set_max(g->value());
  }
  for (const auto& [name, l] : other.latency_names_) {
    latency(name, l->lo(), l->hi(), l->buckets())->merge(*l);
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  auto sorted_names = [](const auto& names) {
    auto copy = names;
    std::sort(copy.begin(), copy.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return copy;
  };

  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : sorted_names(counter_names_)) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << c->value();
    first = false;
  }
  os << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : sorted_names(gauge_names_)) {
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": " << g->value();
    first = false;
  }
  os << "\n  },\n  \"latencies\": {";
  first = true;
  for (const auto& [name, l] : sorted_names(latency_names_)) {
    const auto& s = l->stats();
    os << (first ? "\n" : ",\n") << "    \"" << name << "\": {"
       << "\"count\": " << s.count() << ", \"mean\": " << s.mean()
       << ", \"p50\": " << l->quantile(0.5)
       << ", \"p90\": " << l->quantile(0.9)
       << ", \"p99\": " << l->quantile(0.99) << ", \"max\": " << s.max()
       << "}";
    first = false;
  }
  os << "\n  }\n}\n";
}

const Handles& handles() {
  // thread_local so every handle points into the calling thread's
  // registry (built once per thread; the simulator's per-packet sites
  // hit only the pointer loads after that).
  static thread_local const Handles h = [] {
    auto& reg = MetricsRegistry::instance();
    Handles out;
    out.fast_forwards = reg.counter("overlay.fast_forwards");
    out.client_forwards = reg.counter("overlay.client_forwards");
    out.drops_b = reg.counter("overlay.drops_b");
    out.drops_p = reg.counter("overlay.drops_p");
    out.drops_gop = reg.counter("overlay.drops_gop");
    out.drops_layer = reg.counter("overlay.drops_layer");
    out.layer_filtered = reg.counter("overlay.layer_filtered");
    out.cache_hits = reg.counter("overlay.cache_hits");
    out.rtx_sent = reg.counter("overlay.rtx_sent");
    out.fec_parity_sent = reg.counter("overlay.fec_parity_sent");
    out.fec_recovered = reg.counter("overlay.fec_recovered");
    out.alt_supplier_rtx = reg.counter("overlay.alt_supplier_rtx");
    out.link_drops_queue = reg.counter("link.drops_queue");
    out.link_drops_wire = reg.counter("link.drops_wire");
    out.link_drops_down = reg.counter("link.drops_down");
    out.jitter_frames_released = reg.counter("client.jitter_frames_released");
    out.path_requests_served = reg.counter("brain.path_requests_served");
    out.brain_pairs_solved = reg.counter("brain.recompute_pairs_solved");
    out.brain_pairs_skipped =
        reg.counter("brain.recompute_pairs_skipped_dirty");
    out.brain_last_resort_pairs =
        reg.counter("brain.recompute_last_resort_pairs");
    out.brain_recompute_ms =
        reg.latency("brain.recompute_ms", 0.0, 10000.0, 200);
    out.brain_graph_build_ms =
        reg.latency("brain.recompute_graph_build_ms", 0.0, 10000.0, 200);
    out.brain_solve_ms =
        reg.latency("brain.recompute_solve_ms", 0.0, 10000.0, 200);
    out.brain_install_ms =
        reg.latency("brain.recompute_install_ms", 0.0, 10000.0, 200);
    out.brain_threads = reg.gauge("brain.threads");
    out.traced_packets = reg.counter("telemetry.traced_packets");
    out.trace_records = reg.counter("telemetry.trace_records");
    out.peak_pending_events = reg.gauge("sim.peak_pending_events");
    out.concurrent_viewers = reg.gauge("scenario.concurrent_viewers");
    out.modeled_viewers = reg.gauge("client.modeled_viewers");
    out.cdn_path_delay_ms =
        reg.latency("overlay.cdn_path_delay_ms", 0.0, 2000.0, 200);
    out.recovery_ms = reg.latency("overlay.recovery_ms", 0.0, 1000.0, 200);
    out.recovery_fec_ms =
        reg.latency("overlay.recovery_fec_ms", 0.0, 1000.0, 200);
    out.recovery_rtx_ms =
        reg.latency("overlay.recovery_rtx_ms", 0.0, 1000.0, 200);
    out.svc_mask_flips = reg.counter("svc.mask_flips");
    out.svc_nack_voids = reg.counter("svc.nack_voids");
    out.svc_upswitch_wait_ms =
        reg.latency("svc.upswitch_wait_ms", 0.0, 5000.0, 200);
    return out;
  }();
  return h;
}

}  // namespace livenet::telemetry
