#pragma once

#include <map>
#include <string>
#include <vector>

#include "livenet/scenario.h"
#include "util/stats.h"

// Aggregation helpers turning raw ScenarioResult measurements into the
// exact rows/series the paper's tables and figures report.
namespace livenet {

/// Table 1 row set: the five headline metrics.
struct HeadlineMetrics {
  double cdn_path_delay_ms_median = 0.0;
  double cdn_path_length_median = 0.0;
  double streaming_delay_ms_median = 0.0;
  double zero_stall_percent = 0.0;
  double fast_startup_percent = 0.0;
  std::size_t sessions = 0;
  std::size_t views = 0;
};

/// Computes the headline metrics over a time window ([0, end) of the
/// run when from/to are defaulted).
HeadlineMetrics headline_metrics(const ScenarioResult& r, Time from = 0,
                                 Time to = kNever);

/// Per-session convenience filters.
bool session_healthy(const overlay::ViewSession& s);
bool view_healthy(const client::QoeRecord& v);

/// Distribution of CDN path lengths (Table 2): fraction of sessions
/// with length 0, 1, 2, >= 3. `countries` of consumer/producer decide
/// the inter/intra split; sessions with unknown producers are skipped.
struct PathLengthDist {
  double len0 = 0, len1 = 0, len2 = 0, len3_plus = 0;
  std::size_t count = 0;
};
PathLengthDist path_length_distribution(
    const std::vector<const overlay::ViewSession*>& sessions);

/// Splits sessions into (intra, inter) national by producer/consumer
/// country. `stream_country` maps stream -> producer country.
void split_by_locality(
    const ScenarioResult& r,
    const std::map<media::StreamId, int>& stream_country,
    const std::map<sim::NodeId, int>& node_country,
    std::vector<const overlay::ViewSession*>* intra,
    std::vector<const overlay::ViewSession*>* inter);

/// Boxplot of CDN path delay grouped by observed path length (Fig 11).
std::map<int, BoxStats> delay_by_path_length(const ScenarioResult& r);

/// Welch t-statistic between the per-view streaming delays of two runs
/// (the paper's significance check; |t| > 3.3 ~ p < 0.001).
double streaming_delay_t_statistic(const ScenarioResult& a,
                                   const ScenarioResult& b);

/// Chaos-run summary: per-kind fault counts and recovery-time stats
/// (repair -> first packet delivered on a repaired link).
struct FaultSummary {
  std::size_t injected = 0;
  std::size_t repaired = 0;
  std::size_t recovered = 0;
  double mean_recovery_ms = 0.0;
  double max_recovery_ms = 0.0;
  std::map<std::string, std::size_t> by_kind;
};
FaultSummary fault_summary(const ScenarioResult& r);

// Telemetry exporters, surfaced here so report consumers need no
// direct dependency on the telemetry singletons.

/// Per-hop trace records of the current run (telemetry.csv).
void write_telemetry_csv(std::ostream& os);

/// Metrics registry snapshot (metrics.json).
void write_metrics_json(std::ostream& os);

/// Zeroes the registry and clears the trace ring (call between runs
/// in one process to keep per-run exports isolated).
void reset_telemetry();

}  // namespace livenet
