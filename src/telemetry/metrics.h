#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "util/stats.h"

// Process-wide metrics registry (paper §4.2: every node continuously
// reports fine-grained statistics upward; here the whole simulated CDN
// lives in one process, so one registry stands in for the monitoring
// plane's collection endpoint).
//
// Design constraints, in order:
//   1. Hot-path updates are a single indexed increment through a
//      pre-registered handle — no map lookup, no allocation, no
//      locking (the simulator is single-threaded by construction).
//   2. Registration is by name and idempotent, so independent
//      subsystems can share a metric without coordinating.
//   3. Handles are stable pointers (deque-backed), valid for the
//      process lifetime; reset() zeroes values but never invalidates
//      a handle.
namespace livenet::telemetry {

/// Monotonic event count. Hot-path `add` is one integer add through a
/// stable pointer.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depths, loads, viewers).
/// Cross-shard merges keep the maximum across shards, which is exact
/// for peak-style gauges and a conservative summary for the rest.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  /// Keeps the running maximum (for peak-style gauges).
  void set_max(double v) {
    if (v > value_) value_ = v;
  }
  double value() const { return value_; }
  void reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Histogram-backed latency distribution. Fixed buckets chosen at
/// registration; `observe` is Histogram::add (one bucket increment).
class LatencyStat {
 public:
  LatencyStat(double lo, double hi, std::size_t buckets)
      : lo_(lo), hi_(hi), buckets_(buckets), hist_(lo, hi, buckets) {}

  void observe(double v) {
    hist_.add(v);
    stats_.add(v);
  }
  void merge(const LatencyStat& other) {
    hist_.merge(other.hist_);
    stats_.merge(other.stats_);
  }
  const Histogram& histogram() const { return hist_; }
  const OnlineStats& stats() const { return stats_; }
  /// Histogram quantile clamped to the observed [min, max]: a bucket
  /// midpoint can lie outside the range of the samples in the bucket.
  double quantile(double q) const {
    return std::clamp(hist_.quantile(q), stats_.min(), stats_.max());
  }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::size_t buckets() const { return buckets_; }
  void reset() {
    hist_ = Histogram(lo_, hi_, buckets_);
    stats_ = OnlineStats();
  }

 private:
  double lo_, hi_;
  std::size_t buckets_;
  Histogram hist_;
  OnlineStats stats_;
};

class MetricsRegistry {
 public:
  /// The calling thread's registry. One registry per thread (not per
  /// process): every shard of a sharded run records into its own
  /// registry lock-free, and the runtime folds worker registries into
  /// the main thread's via merge_from() at teardown. Single-threaded
  /// runs see exactly the old process-wide behaviour.
  static MetricsRegistry& instance();

  /// Idempotent by name: the first call registers, later calls return
  /// the same handle. Registration is cold-path only (map lookup).
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  LatencyStat* latency(const std::string& name, double lo, double hi,
                       std::size_t buckets);

  /// Zeroes every value; handles stay valid (per-run isolation in
  /// tests and repeated scenario runs in one process).
  void reset();

  /// Folds another thread's registry into this one by metric name:
  /// counters add, gauges keep the max, latency stats merge histogram
  /// and moments. Metrics only the other registry knows are registered
  /// here first. The caller serializes access (the sharded runtime
  /// merges under its teardown mutex).
  void merge_from(const MetricsRegistry& other);

  /// metrics.json: {"counters": {...}, "gauges": {...},
  /// "latencies": {name: {count, mean, p50, p90, p99, max}}}.
  /// Names are emitted sorted so the output is deterministic.
  void write_json(std::ostream& os) const;

 private:
  MetricsRegistry() = default;

  // deques give stable element addresses across registration.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<LatencyStat> latencies_;
  std::vector<std::pair<std::string, Counter*>> counter_names_;
  std::vector<std::pair<std::string, Gauge*>> gauge_names_;
  std::vector<std::pair<std::string, LatencyStat*>> latency_names_;
};

/// Pre-registered well-known handles: the data plane's per-packet
/// sites grab these once (function-local static) and pay only the
/// increment afterwards.
struct Handles {
  // Overlay data path.
  Counter* fast_forwards;        ///< node->node fan-out copies
  Counter* client_forwards;      ///< node->client copies (post-dropper)
  Counter* drops_b;              ///< proactive dropper, by escalation
  Counter* drops_p;
  Counter* drops_gop;
  Counter* drops_layer;          ///< proactive dropper: SVC enhancement
  Counter* layer_filtered;       ///< packets excluded by a layer mask
                                 ///< (not forked — never copies)
  Counter* cache_hits;           ///< GoP-cache serves (NACK + bursts)
  Counter* rtx_sent;             ///< retransmissions enqueued
  // Loss-recovery tier (FEC + multi-supplier RTX).
  Counter* fec_parity_sent;      ///< parity packets enqueued on links
  Counter* fec_recovered;        ///< packets reconstructed from parity
  Counter* alt_supplier_rtx;     ///< NACKs raced to a non-primary supplier
  // Link layer.
  Counter* link_drops_queue;     ///< tail drops
  Counter* link_drops_wire;      ///< random wire loss
  Counter* link_drops_down;      ///< black-holed on a downed link
  // Client edge.
  Counter* jitter_frames_released;  ///< frames completed by jitter buffers
  // Control plane.
  Counter* path_requests_served;    ///< Brain/replica path lookups answered
  Counter* brain_pairs_solved;      ///< pairs solved by Global Routing
  Counter* brain_last_resort_pairs; ///< pairs left on a last-resort path
  LatencyStat* brain_recompute_ms;  ///< wall time of a routing cycle
  /// Routing-cycle phase split (Parallel Brain): view->graph build,
  /// KSP solve (fan-out wall time when threaded), ordered install.
  LatencyStat* brain_graph_build_ms;
  LatencyStat* brain_solve_ms;
  LatencyStat* brain_install_ms;
  Gauge* brain_threads;             ///< configured solver fan-out width
  // Tracing itself.
  Counter* traced_packets;       ///< bodies stamped with a trace_id
  Counter* trace_records;        ///< hop records appended
  // Simulator.
  Gauge* peak_pending_events;    ///< high-water mark of event-loop queue
  Gauge* concurrent_viewers;     ///< last timeline sample
  Gauge* modeled_viewers;        ///< cohort-weighted viewer population peak
  LatencyStat* cdn_path_delay_ms;   ///< per-forwarded-packet CDN delay
  /// Hole-to-fill recovery time, overall and split by the tier that
  /// filled the hole (FEC reconstruction vs RTX arrival).
  LatencyStat* recovery_ms;
  LatencyStat* recovery_fec_ms;
  LatencyStat* recovery_rtx_ms;
  // SVC layer switching (queryable via trace_query --metrics svc.).
  Counter* svc_mask_flips;          ///< per-client layer-mask changes
  Counter* svc_nack_voids;          ///< filtered-seq NACKs answered as voids
  LatencyStat* svc_upswitch_wait_ms; ///< widen commit gating delay
};

/// The shared handle set (registered on first use).
const Handles& handles();

}  // namespace livenet::telemetry
