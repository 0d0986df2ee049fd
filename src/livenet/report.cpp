#include "livenet/report.h"

#include <algorithm>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace livenet {

bool session_healthy(const overlay::ViewSession& s) {
  return !s.failed && s.cdn_delay_ms.count() > 0 && s.path_length >= 0;
}

bool view_healthy(const client::QoeRecord& v) {
  return !v.view_failed && v.first_display != kNever &&
         v.frames_displayed > 0;
}

HeadlineMetrics headline_metrics(const ScenarioResult& r, Time from,
                                 Time to) {
  HeadlineMetrics out;
  const Time end = to == kNever ? std::numeric_limits<Time>::max() : to;

  Samples cdn_delay, path_len;
  for (const auto& s : r.overlay.sessions()) {
    if (s.request_time < from || s.request_time >= end) continue;
    if (!session_healthy(s)) continue;
    cdn_delay.add(s.cdn_delay_ms.mean());
    path_len.add(s.path_length);
    ++out.sessions;
  }
  Samples streaming;
  RatioCounter zero_stall, fast_start;
  for (const auto& v : r.clients.records()) {
    if (v.view_start < from || v.view_start >= end) continue;
    if (!view_healthy(v)) continue;
    streaming.add(v.streaming_delay_ms.mean());
    zero_stall.add(v.stalls == 0);
    fast_start.add(v.fast_startup());
    ++out.views;
  }
  out.cdn_path_delay_ms_median = cdn_delay.median();
  out.cdn_path_length_median = path_len.median();
  out.streaming_delay_ms_median = streaming.median();
  out.zero_stall_percent = zero_stall.percent();
  out.fast_startup_percent = fast_start.percent();
  return out;
}

PathLengthDist path_length_distribution(
    const std::vector<const overlay::ViewSession*>& sessions) {
  PathLengthDist d;
  for (const auto* s : sessions) {
    if (!session_healthy(*s)) continue;
    ++d.count;
    switch (s->path_length) {
      case 0: d.len0 += 1; break;
      case 1: d.len1 += 1; break;
      case 2: d.len2 += 1; break;
      default: d.len3_plus += 1; break;
    }
  }
  if (d.count > 0) {
    const auto n = static_cast<double>(d.count);
    d.len0 /= n;
    d.len1 /= n;
    d.len2 /= n;
    d.len3_plus /= n;
  }
  return d;
}

void split_by_locality(
    const ScenarioResult& r,
    const std::map<media::StreamId, int>& stream_country,
    const std::map<sim::NodeId, int>& node_country,
    std::vector<const overlay::ViewSession*>* intra,
    std::vector<const overlay::ViewSession*>* inter) {
  for (const auto& s : r.overlay.sessions()) {
    const auto pit = stream_country.find(s.stream);
    const auto cit = node_country.find(s.consumer);
    if (pit == stream_country.end() || cit == node_country.end()) continue;
    if (pit->second == cit->second) {
      intra->push_back(&s);
    } else {
      inter->push_back(&s);
    }
  }
}

std::map<int, BoxStats> delay_by_path_length(const ScenarioResult& r) {
  std::map<int, Samples> grouped;
  for (const auto& s : r.overlay.sessions()) {
    if (!session_healthy(s)) continue;
    grouped[std::min(s.path_length, 3)].add(s.cdn_delay_ms.mean());
  }
  std::map<int, BoxStats> out;
  for (const auto& [len, samples] : grouped) {
    out[len] = boxplot(samples);
  }
  return out;
}

FaultSummary fault_summary(const ScenarioResult& r) {
  FaultSummary out;
  Samples recovery;
  for (const auto& f : r.faults) {
    if (f.injected_at == kNever) continue;  // scheduled past the horizon
    ++out.injected;
    ++out.by_kind[sim::to_string(f.spec.kind)];
    if (f.repaired()) ++out.repaired;
    if (f.recovered()) {
      ++out.recovered;
      recovery.add(to_ms(f.recovery_time()));
    }
  }
  out.mean_recovery_ms = recovery.mean();
  out.max_recovery_ms = recovery.max();
  return out;
}

double streaming_delay_t_statistic(const ScenarioResult& a,
                                   const ScenarioResult& b) {
  OnlineStats sa, sb;
  for (const auto& v : a.clients.records()) {
    if (view_healthy(v)) sa.add(v.streaming_delay_ms.mean());
  }
  for (const auto& v : b.clients.records()) {
    if (view_healthy(v)) sb.add(v.streaming_delay_ms.mean());
  }
  return welch_t_statistic(sa, sb);
}

void write_telemetry_csv(std::ostream& os) {
  telemetry::Tracer::instance().write_csv(os);
}

void write_metrics_json(std::ostream& os) {
  telemetry::MetricsRegistry::instance().write_json(os);
}

void reset_telemetry() {
  telemetry::Tracer::instance().reset();
  telemetry::MetricsRegistry::instance().reset();
}

}  // namespace livenet
