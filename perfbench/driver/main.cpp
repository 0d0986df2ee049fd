// Benchmark driver: runs one workload of the LiveNet simulator for a
// wall-clock budget and prints one JSON object of raw measurements on
// stdout. run.py turns those into metrics; nothing here computes a
// percentile, and the simulator's own registry quantiles are not read.
//
//   perfbench_run --workload W --seed N --seconds S [--setup-reps K]
//                 [--trace] [--perturb-loss]
//
// Workloads (see ../README.md for why each exists):
//   paper_livenet   paper system + scenario on LiveNet, no faults
//   paper_hier      the same traffic on the Hier baseline
//   chaos_recovery  paper_livenet + dense faults, adaptive FEC,
//                   multi-supplier RTX and L1T3 SVC
//   brain_600       600-node Global Routing cycles under report churn
//
// A simulation repetition ("rep") is one whole ScenarioRunner::run() of
// one compressed day on a freshly built system, with a seed derived
// from --seed; a brain_600 rep is one routing cycle. Reps run until the
// budget is spent; the first few always run and make up the digest, so
// a tiny --seconds runs exactly those.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "brain/global_discovery.h"
#include "brain/global_routing.h"
#include "livenet/csv.h"
#include "livenet/defaults.h"
#include "livenet/report.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "util/rng.h"

using namespace livenet;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int setup_reps = 3;
  bool trace = false;
  bool perturb_loss = false;  // correctness-gate self-test only
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}



/// FNV-1a over everything fed to it.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ull;
    }
  }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  template <class T>
  void value(T v) {
    bytes(&v, sizeof v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

long current_peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

void write_array(std::ostream& os, const std::vector<double>& v) {
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << ']';
}

using Counters = std::vector<std::pair<std::string, double>>;

/// One timed repetition: a scenario run, or a brain_600 routing cycle.
struct Rep {
  double wall_s = 0.0;
  double virtual_s = 0.0;
  double work = 0.0;  ///< packet hops, or pairs solved for brain_600
  std::vector<double> slice_ms;  ///< wall ms per virtual second
  std::string digest;
  Counters counters;  ///< counts read from public state after the rep
};

struct RunOutput {
  std::vector<double> setup_s;
  std::vector<Rep> reps;
  std::string digest;
  /// Peak RSS once the digested reps are done: the same work on every
  /// host, unlike the number of reps the budget allows.
  long peak_rss_kb = 0;
  std::string extra = "null";  ///< workload-specific JSON object
};

void write_counters(std::ostream& os, const Counters& c) {
  os << '{';
  for (std::size_t i = 0; i < c.size(); ++i) {
    os << (i ? ", " : "") << '"' << c[i].first << "\": " << c[i].second;
  }
  os << '}';
}

// ---------------------------------------------------------------------------
// Simulation workloads

/// Stamps the wall clock at every whole virtual second. Ticks change no
/// simulator state, so outputs match an unticked run byte for byte.
struct Ticker {
  sim::EventLoop* loop = nullptr;
  Time end = 0;
  std::vector<Clock::time_point> stamps;

  void arm(Time t) {
    loop->schedule_at(t, [this, t] {
      stamps.push_back(Clock::now());
      if (t + kSec <= end) arm(t + kSec);
    });
  }
};

SystemConfig system_config(const Options& o, bool chaos) {
  SystemConfig cfg = paper_system_config(o.seed);
  if (o.perturb_loss) cfg.base_loss_rate *= 1.01;
  if (chaos) {
    cfg.overlay_node.fec_adaptive = true;
    cfg.overlay_node.multi_supplier_rtx = true;
    cfg.overlay_node.standby_suppliers = 1;
  }
  return cfg;
}

ScenarioConfig scenario_config(const Options& o, bool chaos) {
  ScenarioConfig scn = paper_scenario_config(o.seed ^ 0x5C3A);
  scn.duration = scn.day_length;  // one compressed day per scenario
  scn.trace_sample = 0.0;
  if (chaos) apply_svc_mode(scn, "L1T3");
  return scn;
}

/// chaos_recovery's fault plan: one fault every kFaultSpacing through
/// the day, kinds in a fixed rotation (6 flaps, 5 degrades, 1 node
/// crash, 1 control outage per day), seeded targets and timing jitter.
/// A fixed count and cadence keeps recovery load comparable across
/// seeds; Poisson arrivals made one scenario in ten lose most views.
constexpr Duration kFaultSpacing = 4 * kSec;

sim::FaultPlan fault_plan(CdnSystem& system, std::uint64_t seed,
                          Duration day) {
  using sim::FaultKind;
  static constexpr FaultKind kRotation[] = {
      FaultKind::kLinkFlap,     FaultKind::kLinkDegrade,
      FaultKind::kLinkFlap,     FaultKind::kLinkDegrade,
      FaultKind::kNodeCrash,    FaultKind::kLinkFlap,
      FaultKind::kLinkDegrade,  FaultKind::kLinkFlap,
      FaultKind::kLinkDegrade,  FaultKind::kControlOutage,
      FaultKind::kLinkFlap,     FaultKind::kLinkDegrade,
      FaultKind::kLinkFlap};
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xFA17);
  const auto& links = system.cdn_links();
  const std::vector<sim::NodeId> crashable = system.crashable_nodes();
  sim::FaultPlan plan;
  plan.seed = seed;
  Time at = 6 * kSec;
  for (const FaultKind kind : kRotation) {
    if (at + kFaultSpacing > day) break;
    sim::FaultSpec f;
    f.kind = kind;
    f.at = at + static_cast<Duration>(rng.uniform(-0.5, 0.5) * kSec);
    if (kind == FaultKind::kNodeCrash) {
      f.a = crashable[rng.index(crashable.size())];
      f.duration = 3 * kSec;
    } else if (kind == FaultKind::kControlOutage) {
      f.a = system.control_node();
      f.duration = 4 * kSec;
    } else {
      const sim::Link* l = links[rng.index(links.size())];
      f.a = l->src();
      f.b = l->dst();
      f.duration = kind == FaultKind::kLinkFlap ? 2 * kSec : 4 * kSec;
      if (kind == FaultKind::kLinkDegrade) {
        f.loss = 0.25;
        f.extra_delay = 30 * kMs;
      }
    }
    plan.scripted.push_back(f);
    at += kFaultSpacing;
  }
  return plan;
}

std::uint64_t packet_hops(sim::Network& net) {
  std::uint64_t hops = 0;
  for (std::size_t n = 0; n < net.node_count(); ++n) {
    const auto src = static_cast<sim::NodeId>(n);
    for (const sim::NodeId dst : net.neighbors(src)) {
      hops += net.link(src, dst)->stats().packets_delivered;
    }
  }
  return hops;
}

/// One whole ScenarioRunner::run() on a freshly built system.
template <class System>
void run_scenario(const Options& o, bool chaos, Rep* rep, double* setup_s) {
  const SystemConfig cfg = system_config(o, chaos);
  ScenarioConfig scn = scenario_config(o, chaos);
  const Time end = scn.duration + 2 * kSec;  // run() drains 2 s after

  reset_telemetry();
  auto t0 = Clock::now();
  auto system = std::make_unique<System>(cfg);
  system->build_once();
  *setup_s = seconds_since(t0);

  if (chaos) scn.faults = fault_plan(*system, o.seed, scn.duration);
  ScenarioRunner runner(*system, scn);
  Ticker ticker{&system->loop(), end, {}};
  ticker.stamps.reserve(static_cast<std::size_t>(end / kSec) + 1);
  ticker.arm(1 * kSec);

  if (o.trace) perfbench::trace_start();
  t0 = Clock::now();
  const ScenarioResult result = runner.run();
  rep->wall_s = seconds_since(t0);
  if (o.trace) perfbench::trace_stop();

  rep->virtual_s = to_sec(end);
  auto prev = t0;
  for (const auto& s : ticker.stamps) {
    rep->slice_ms.push_back(
        std::chrono::duration<double, std::milli>(s - prev).count());
    prev = s;
  }
  sim::Network& net = system->network();
  const std::uint64_t hops = packet_hops(net);
  rep->work = static_cast<double>(hops);

  std::ostringstream csv;
  write_sessions_csv(result, csv);
  write_views_csv(result, csv);
  write_path_requests_csv(result, csv);
  if (chaos) write_faults_csv(result, csv);
  Digest d;
  d.text(csv.str());
  rep->digest = d.hex();

  std::uint64_t views = 0, failed = 0;
  for (const auto& r : result.clients.records()) {
    ++views;
    if (r.view_failed || r.first_display == kNever) ++failed;
  }
  const auto& h = telemetry::handles();
  const auto& recompute = h.brain_recompute_ms->stats();
  const sim::EventLoop& loop = system->loop();
  rep->counters = {
      {"sim.events",
       static_cast<double>(loop.dispatched() - ticker.stamps.size())},
      {"sim.peak_pending", static_cast<double>(loop.peak_pending())},
      {"sim.batch.upcalls", static_cast<double>(net.batch_upcalls())},
      {"sim.batch.packets", static_cast<double>(net.batch_packets())},
      {"sim.packet_hops", static_cast<double>(hops)},
      {"client.views", static_cast<double>(views)},
      {"client.views_failed", static_cast<double>(failed)},
      {"client.frames_released",
       static_cast<double>(h.jitter_frames_released->value())},
      {"overlay.fast_forwards", static_cast<double>(h.fast_forwards->value())},
      {"overlay.client_forwards",
       static_cast<double>(h.client_forwards->value())},
      {"overlay.rtx_sent", static_cast<double>(h.rtx_sent->value())},
      {"overlay.cache_hits", static_cast<double>(h.cache_hits->value())},
      {"overlay.alt_supplier_rtx",
       static_cast<double>(h.alt_supplier_rtx->value())},
      {"overlay.svc_mask_flips", static_cast<double>(h.svc_mask_flips->value())},
      {"media.fec.parity_sent", static_cast<double>(h.fec_parity_sent->value())},
      {"media.fec.recovered", static_cast<double>(h.fec_recovered->value())},
      {"brain.recompute.count", static_cast<double>(recompute.count())},
      {"brain.recompute.sum_ms",
       recompute.mean() * static_cast<double>(recompute.count())},
      {"brain.recompute.max_ms", recompute.max()},
      {"brain.pairs_solved", static_cast<double>(h.brain_pairs_solved->value())},
      {"faults.injected", static_cast<double>(result.faults.size())},
  };
}

/// Scenarios every run simulates, and digests, whatever the budget.
constexpr std::size_t kMinScenarios = 4;
/// Scenario k of a run with seed N has seed kSeedStride * N + k.
constexpr std::uint64_t kSeedStride = 1000;

/// Stops once another rep would overrun the budget by more than half a
/// rep (at least `min_reps` reps).
bool budget_spent(Clock::time_point start, std::size_t reps,
                  std::size_t min_reps, double seconds) {
  const double elapsed = seconds_since(start);
  return reps >= min_reps &&
         elapsed + 0.5 * elapsed / static_cast<double>(reps) > seconds;
}

/// One-day scenarios, each on its own derived seed, until the budget is
/// spent. Timing many scenarios of one run averages over broadcaster
/// layouts and viewer populations instead of timing one draw of them.
template <class System>
void run_sim(const Options& o, bool chaos, RunOutput* out) {
  const auto start = Clock::now();
  Digest digest;
  do {
    Options sub = o;
    sub.seed = o.seed * kSeedStride + out->reps.size();
    Rep rep;
    double setup_s = 0.0;
    run_scenario<System>(sub, chaos, &rep, &setup_s);
    out->setup_s.push_back(setup_s);
    if (out->reps.size() < kMinScenarios) digest.text(rep.digest);
    out->reps.push_back(std::move(rep));
    if (out->reps.size() == kMinScenarios) {
      out->peak_rss_kb = current_peak_rss_kb();
    }
  } while (!budget_spent(start, out->reps.size(), kMinScenarios, o.seconds));
  out->digest = digest.hex();
}

// ---------------------------------------------------------------------------
// brain_600: Global Routing at deployment scale

constexpr int kBrainNodes = 600;
constexpr int kLastResortNodes = 2;
constexpr std::size_t kBrainThreads = 2;
/// Relative noise on every reported link metric per report round.
constexpr double kBrainJitter = 0.05;
/// Fraction of links whose state jumps to a fresh draw per report round.
constexpr double kLinkJumpFraction = 0.02;
/// Cycles whose installed PIB enters the digest (after the cold one).
constexpr std::size_t kDigestCycles = 2;

struct LinkBase {
  double rtt_ms, loss, util;
};

/// The Brain's inputs and state: a full-mesh Discovery view fed by
/// seeded node reports, plus the routing module and the live PIB.
class BrainBench {
 public:
  BrainBench(std::uint64_t seed, std::size_t threads)
      : rng_(seed), base_(kBrainNodes * kBrainNodes), load_(kBrainNodes) {
    for (int n = 0; n < kBrainNodes; ++n) {
      (n < kBrainNodes - kLastResortNodes ? nodes_ : last_resort_)
          .push_back(n);
      load_[n] = rng_.uniform(0.05, 0.6);
    }
    for (LinkBase& l : base_) l = draw();
    brain::GlobalRoutingConfig cfg;
    cfg.k = 3;
    cfg.threads = threads;
    routing_ = std::make_unique<brain::GlobalRouting>(cfg);
    report_round(0.0);
  }

  /// One report from every node. `jitter` is the relative noise on
  /// every link; with jitter > 0 a seeded few links also jump.
  void report_round(double jitter) {
    const Time now = static_cast<Time>(round_++) * routing_interval();
    for (int a = 0; a < kBrainNodes; ++a) {
      overlay::NodeStateReport rep;
      rep.node = a;
      rep.node_load = load_[a] * (1.0 + rng_.uniform(-jitter, jitter));
      rep.links.reserve(kBrainNodes - 1);
      for (int b = 0; b < kBrainNodes; ++b) {
        if (a == b) continue;
        LinkBase& l = base_[static_cast<std::size_t>(a * kBrainNodes + b)];
        if (jitter > 0.0 && rng_.chance(kLinkJumpFraction)) l = draw();
        const double f = 1.0 + rng_.uniform(-jitter, jitter);
        overlay::LinkReport lr;
        lr.to = b;
        lr.rtt = static_cast<Duration>(l.rtt_ms * f * kMs);
        lr.loss_rate = l.loss * f;
        lr.utilization = std::min(0.75, l.util * f);
        rep.links.push_back(lr);
      }
      view_.on_report(rep, now, &pib_);
    }
  }

  brain::GlobalRouting::Result recompute() {
    return routing_->recompute(view_, nodes_, last_resort_, &pib_);
  }

  /// Regular pairs left with neither a path nor a last-resort fallback.
  std::uint64_t unrouted_pairs() const {
    std::uint64_t missing = 0;
    for (const sim::NodeId s : nodes_) {
      for (const sim::NodeId d : nodes_) {
        if (s == d) continue;
        const auto* paths = pib_.find(s, d);
        if ((paths == nullptr || paths->empty()) &&
            pib_.find_last_resort(s, d) == nullptr) {
          ++missing;
        }
      }
    }
    return missing;
  }

  std::uint64_t pair_count() const {
    return static_cast<std::uint64_t>(nodes_.size()) * (nodes_.size() - 1);
  }

  void digest_pib(Digest* d) const {
    for (const sim::NodeId s : nodes_) {
      for (const sim::NodeId t : nodes_) {
        if (s == t) continue;
        d->value(s);
        d->value(t);
        if (const auto* paths = pib_.find(s, t)) {
          d->value(paths->size());
          for (const overlay::Path& p : *paths) {
            d->value(p.size());
            d->bytes(p.data(), p.size() * sizeof(sim::NodeId));
          }
        }
        if (const overlay::Path* lr = pib_.find_last_resort(s, t)) {
          d->value(lr->size());
          d->bytes(lr->data(), lr->size() * sizeof(sim::NodeId));
        }
      }
    }
  }

  /// Solve time of a warm cycle on a fresh module with `threads`.
  double warm_solve_ms(std::size_t threads) {
    brain::GlobalRoutingConfig cfg = routing_->config();
    cfg.threads = threads;
    brain::GlobalRouting routing(cfg);
    brain::Pib pib;
    routing.recompute(view_, nodes_, last_resort_, &pib);
    report_round(kBrainJitter);
    return routing.recompute(view_, nodes_, last_resort_, &pib).solve_ms;
  }

  static Duration routing_interval() {
    return paper_system_config().brain.routing_interval;
  }

 private:
  LinkBase draw() {
    return LinkBase{rng_.uniform(10.0, 300.0), rng_.uniform(0.0, 0.002),
                    rng_.uniform(0.0, 0.7)};
  }

  Rng rng_;
  std::vector<LinkBase> base_;
  std::vector<double> load_;
  std::vector<sim::NodeId> nodes_;
  std::vector<sim::NodeId> last_resort_;
  brain::GlobalDiscovery view_;
  std::unique_ptr<brain::GlobalRouting> routing_;
  brain::Pib pib_;
  std::uint64_t round_ = 0;
};

bool run_brain(const Options& o, RunOutput* out) {
  reset_telemetry();
  std::unique_ptr<BrainBench> bench;
  std::string cold_digest;
  for (int i = 0; i < std::max(1, o.setup_reps); ++i) {
    bench.reset();
    const auto t0 = Clock::now();
    bench = std::make_unique<BrainBench>(o.seed, kBrainThreads);
    bench->recompute();  // cold full cycle
    out->setup_s.push_back(seconds_since(t0));
    Digest d;
    bench->digest_pib(&d);
    if (!cold_digest.empty() && d.hex() != cold_digest) {
      std::cerr << "perfbench: cold cycle digest differs across set-ups\n";
      return false;
    }
    cold_digest = d.hex();
  }

  Digest digest;
  digest.text(cold_digest);
  const double interval_s = to_sec(BrainBench::routing_interval());
  const auto start = Clock::now();
  do {
    if (o.trace) perfbench::trace_start();
    const auto t0 = Clock::now();
    bench->report_round(kBrainJitter);
    const auto t1 = Clock::now();
    const brain::GlobalRouting::Result res = bench->recompute();
    Rep rep;
    rep.wall_s = seconds_since(t0);
    const double recompute_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
    if (o.trace) perfbench::trace_stop();

    rep.virtual_s = interval_s;
    rep.work = static_cast<double>(res.pairs_solved);
    rep.slice_ms.push_back(rep.wall_s * 1e3 / interval_s);
    rep.counters = {
        {"brain.recompute_ms", recompute_ms},
        {"brain.pairs", static_cast<double>(bench->pair_count())},
        {"brain.unrouted_pairs", static_cast<double>(bench->unrouted_pairs())},
        {"brain.pairs_solved", static_cast<double>(res.pairs_solved)},
        {"brain.last_resort_pairs",
         static_cast<double>(res.last_resort_pairs)},
    };
    if (out->reps.size() < kDigestCycles) bench->digest_pib(&digest);
    out->reps.push_back(std::move(rep));
    if (out->reps.size() == kDigestCycles) {
      out->peak_rss_kb = current_peak_rss_kb();
    }
  } while (!budget_spent(start, out->reps.size(), kDigestCycles, o.seconds));
  out->digest = digest.hex();

  if (o.trace) {
    // ROADMAP 1d: solve-phase scaling, one warm cycle per width.
    std::ostringstream extra;
    extra << std::setprecision(10)
          << "{\"solve_ms_threads_1\": " << bench->warm_solve_ms(1)
          << ", \"solve_ms_threads_4\": " << bench->warm_solve_ms(4) << "}";
    out->extra = extra.str();
  }
  return true;
}

// ---------------------------------------------------------------------------

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--trace") {
      o->trace = true;
      continue;
    }
    if (arg == "--perturb-loss") {
      o->perturb_loss = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::atof(v);
    } else if (arg == "--setup-reps") {
      o->setup_reps = std::atoi(v);
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, &o)) {
    std::cerr << "usage: " << argv[0]
              << " --workload paper_livenet|paper_hier|chaos_recovery|"
                 "brain_600 --seed N --seconds S\n"
                 "       [--setup-reps K] [--trace] [--perturb-loss]\n";
    return 2;
  }
  if (o.trace && !perfbench::trace_linked()) {
    std::cerr << "--trace needs the perfbench_traced binary\n";
    return 2;
  }

  RunOutput out;
  bool ok = true;
  if (o.workload == "paper_livenet") {
    run_sim<LiveNetSystem>(o, /*chaos=*/false, &out);
  } else if (o.workload == "paper_hier") {
    run_sim<HierSystem>(o, /*chaos=*/false, &out);
  } else if (o.workload == "chaos_recovery") {
    run_sim<LiveNetSystem>(o, /*chaos=*/true, &out);
  } else if (o.workload == "brain_600") {
    ok = run_brain(o, &out);
  } else {
    std::cerr << "unknown workload: " << o.workload << "\n";
    return 2;
  }
  if (!ok) return 1;

  std::ostream& os = std::cout;
  os << std::setprecision(10);
  os << "{\"workload\": \"" << o.workload << "\", \"seed\": " << o.seed
 << ", \"traced\": "
     << (o.trace ? "true" : "false") << ", \"setup_s\": ";
  write_array(os, out.setup_s);
  os << ", \"reps\": [";
  for (std::size_t i = 0; i < out.reps.size(); ++i) {
    const Rep& r = out.reps[i];
    os << (i ? ", " : "") << "{\"wall_s\": " << r.wall_s
       << ", \"virtual_s\": " << r.virtual_s
       << ", \"work\": " << r.work << ", \"counters\": ";
    write_counters(os, r.counters);
    os << ", \"slice_ms\": ";
    write_array(os, r.slice_ms);
    os << "}";
  }
  os << "], \"digest\": \"" << out.digest
     << "\", \"peak_rss_kb\": " << out.peak_rss_kb << ", \"extra\": "
     << out.extra << ", \"trace\": ";
  if (o.trace) {
    perfbench::trace_write_json(os);
  } else {
    os << "null";
  }
  os << "}\n";
  return 0;
}
