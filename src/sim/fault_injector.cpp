#include "sim/fault_injector.h"

#include <algorithm>
#include <memory>

#include "util/rng.h"

namespace livenet::sim {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kLinkFlap: return "link_flap";
    case FaultKind::kLinkDegrade: return "link_degrade";
    case FaultKind::kNodeCrash: return "node_crash";
    case FaultKind::kControlOutage: return "control_outage";
  }
  return "unknown";
}

FaultInjector::~FaultInjector() {
  for (const EventId id : pending_) net_->loop()->cancel(id);
}

void FaultInjector::schedule(Time when, std::function<void()> fn) {
  // Events self-deregister so the destructor can cancel the rest (an
  // injector may die before the loop drains; its callbacks must not).
  auto holder = std::make_shared<EventId>(kInvalidEvent);
  *holder = net_->loop()->schedule_at(
      when, [this, holder, f = std::move(fn)] {
        pending_.erase(*holder);
        f();
      });
  pending_.insert(*holder);
}

void FaultInjector::inject(const FaultSpec& spec) {
  const std::size_t idx = records_.size();
  records_.push_back(FaultRecord{spec, kNever, kNever, kNever});
  const Time at = std::max(spec.at, net_->loop()->now());
  schedule(at, [this, idx] { apply(idx); });
}

std::vector<Link*> FaultInjector::fault_links(const FaultSpec& spec) const {
  std::vector<Link*> out;
  auto push = [&out, this](NodeId s, NodeId d) {
    if (Link* l = const_cast<Network*>(net_)->link(s, d)) out.push_back(l);
  };
  switch (spec.kind) {
    case FaultKind::kLinkFlap:
    case FaultKind::kLinkDegrade:
      push(spec.a, spec.b);
      if (spec.bidirectional) push(spec.b, spec.a);
      break;
    case FaultKind::kNodeCrash:
    case FaultKind::kControlOutage:
      for (const NodeId peer : net_->neighbors(spec.a)) {
        push(spec.a, peer);
        push(peer, spec.a);
      }
      break;
  }
  return out;
}

void FaultInjector::apply(std::size_t idx) {
  auto& rec = records_[idx];
  rec.injected_at = net_->loop()->now();
  ++active_;
  const auto links = fault_links(rec.spec);
  switch (rec.spec.kind) {
    case FaultKind::kLinkFlap:
    case FaultKind::kNodeCrash:
    case FaultKind::kControlOutage:
      for (Link* l : links) {
        ++down_count_[link_key(l)];
        l->set_down(true);
      }
      break;
    case FaultKind::kLinkDegrade:
      for (Link* l : links) {
        ++degrade_count_[link_key(l)];
        l->set_loss_override(rec.spec.loss);
        l->set_extra_delay(rec.spec.extra_delay);
      }
      break;
  }
  if ((rec.spec.kind == FaultKind::kNodeCrash ||
       rec.spec.kind == FaultKind::kControlOutage) &&
      on_crash_) {
    on_crash_(rec.spec.a);
  }
  if (rec.spec.duration > 0) {
    schedule(rec.injected_at + rec.spec.duration,
             [this, idx] { repair(idx); });
  }
}

void FaultInjector::repair(std::size_t idx) {
  auto& rec = records_[idx];
  rec.repaired_at = net_->loop()->now();
  if (active_ > 0) --active_;
  const auto links = fault_links(rec.spec);
  switch (rec.spec.kind) {
    case FaultKind::kLinkFlap:
    case FaultKind::kNodeCrash:
    case FaultKind::kControlOutage:
      for (Link* l : links) {
        if (--down_count_[link_key(l)] <= 0) {
          down_count_.erase(link_key(l));
          l->set_down(false);
        }
      }
      break;
    case FaultKind::kLinkDegrade:
      for (Link* l : links) {
        if (--degrade_count_[link_key(l)] <= 0) {
          degrade_count_.erase(link_key(l));
          l->set_loss_override(-1.0);
          l->set_extra_delay(0);
        }
      }
      break;
  }
  if ((rec.spec.kind == FaultKind::kNodeCrash ||
       rec.spec.kind == FaultKind::kControlOutage) &&
      on_restart_) {
    on_restart_(rec.spec.a);
  }
  watch_recovery(idx);
}

void FaultInjector::watch_recovery(std::size_t idx) {
  std::vector<std::pair<Link*, std::uint64_t>> watch;
  for (Link* l : fault_links(records_[idx].spec)) {
    watch.emplace_back(l, l->stats().packets_delivered);
  }
  if (watch.empty()) return;
  const Time deadline = net_->loop()->now() + kRecoveryTimeout;
  poll_recovery(idx, std::move(watch), deadline);
}

void FaultInjector::poll_recovery(
    std::size_t idx, std::vector<std::pair<Link*, std::uint64_t>> watch,
    Time deadline) {
  schedule(net_->loop()->now() + kRecoveryPoll,
           [this, idx, watch = std::move(watch), deadline] {
             for (const auto& [l, baseline] : watch) {
               if (l->stats().packets_delivered > baseline) {
                 records_[idx].recovered_at = net_->loop()->now();
                 return;
               }
             }
             if (net_->loop()->now() >= deadline) return;  // stays kNever
             poll_recovery(idx, watch, deadline);
           });
}

void FaultInjector::load_plan(
    const FaultPlan& plan, Time horizon,
    const std::vector<std::pair<NodeId, NodeId>>& links,
    const std::vector<NodeId>& crashable, NodeId control) {
  for (const FaultSpec& s : plan.scripted) inject(s);

  // Random schedules are drawn up front, category by category, from a
  // generator seeded only by the plan: the chaos is a pure function of
  // (plan, candidates), independent of anything the workload does.
  Rng rng(plan.seed);
  const Time start = net_->loop()->now();
  auto expand = [&](double per_min, auto make_spec) {
    if (per_min <= 0.0) return;
    const double mean_gap_sec = 60.0 / per_min;
    Time t = start +
             static_cast<Duration>(rng.exponential(mean_gap_sec) *
                                   static_cast<double>(kSec));
    while (t < horizon) {
      FaultSpec spec = make_spec(rng);
      spec.at = t;
      inject(spec);
      t += static_cast<Duration>(rng.exponential(mean_gap_sec) *
                                 static_cast<double>(kSec));
    }
  };
  auto draw_outage = [this](Rng& rng_ref, Duration mean) {
    const auto d = static_cast<Duration>(
        rng_ref.exponential(to_sec(mean)) * static_cast<double>(kSec));
    return std::max(d, kMinOutage);
  };

  if (!links.empty()) {
    expand(plan.link_flaps_per_min, [&](Rng& r) {
      const auto& [a, b] = links[r.index(links.size())];
      FaultSpec s;
      s.kind = FaultKind::kLinkFlap;
      s.a = a;
      s.b = b;
      s.duration = draw_outage(r, plan.flap_outage_mean);
      return s;
    });
    expand(plan.degrades_per_min, [&](Rng& r) {
      const auto& [a, b] = links[r.index(links.size())];
      FaultSpec s;
      s.kind = FaultKind::kLinkDegrade;
      s.a = a;
      s.b = b;
      s.loss = plan.degrade_loss;
      s.extra_delay = plan.degrade_extra_delay;
      s.duration = draw_outage(r, plan.degrade_outage_mean);
      return s;
    });
  }
  if (!crashable.empty()) {
    expand(plan.node_crashes_per_min, [&](Rng& r) {
      FaultSpec s;
      s.kind = FaultKind::kNodeCrash;
      s.a = crashable[r.index(crashable.size())];
      s.duration = draw_outage(r, plan.crash_downtime_mean);
      return s;
    });
  }
  if (control != kNoNode) {
    expand(plan.control_outages_per_min, [&](Rng& r) {
      FaultSpec s;
      s.kind = FaultKind::kControlOutage;
      s.a = control;
      s.duration = draw_outage(r, plan.control_outage_mean);
      return s;
    });
  }
}

}  // namespace livenet::sim
