#include "sim/serving_resilience.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <queue>

#include "tensor/check.h"

namespace actcomp::sim {

const char* route_policy_label(RoutePolicy p) {
  switch (p) {
    case RoutePolicy::kRoundRobin: return "round-robin";
    case RoutePolicy::kJoinShortestQueue: return "jsq";
    case RoutePolicy::kHealthAware: return "health-aware";
  }
  return "?";
}

SloDegradationController::SloDegradationController(
    const ServingDegradeSpec& spec, double slo_p99_ms, int num_levels)
    : spec_(spec),
      slo_ms_(slo_p99_ms),
      ladder_(num_levels, spec.hold_windows) {
  ACTCOMP_CHECK(spec.window >= 1, "ServingDegradeSpec.window = "
                                      << spec.window << ", must be >= 1");
  ACTCOMP_CHECK(spec.recover_fraction > 0.0 && spec.recover_fraction < 1.0,
                "ServingDegradeSpec.recover_fraction = "
                    << spec.recover_fraction << ", must be in (0, 1)");
  ACTCOMP_CHECK(std::isfinite(slo_p99_ms) && slo_p99_ms > 0.0,
                "SloDegradationController: slo_p99_ms = " << slo_p99_ms
                                                          << ", must be > 0");
}

int SloDegradationController::observe_e2e(double e2e_ms) {
  buf_.push_back(e2e_ms);
  if (buf_.size() < static_cast<size_t>(spec_.window)) return level();
  last_p99_ = latency_percentiles(buf_).p99_ms;
  buf_.clear();
  // Dead band between the escalate threshold (the SLO) and the recover
  // threshold (recover_fraction x SLO): a p99 sitting between them is a band
  // reading, so the controller cannot oscillate on a constant load.
  using Reading = HysteresisLadder::Reading;
  return ladder_.observe(last_p99_ > slo_ms_ ? Reading::kBreach
                         : last_p99_ < spec_.recover_fraction * slo_ms_
                             ? Reading::kHealthy
                             : Reading::kBand);
}

void validate_resilient_serving_inputs(
    const std::vector<ServingRequest>& requests,
    const ResilientServingConfig& cfg) {
  ACTCOMP_CHECK(cfg.num_replicas >= 1,
                "ResilientServingConfig.num_replicas = " << cfg.num_replicas
                                                         << ", must be >= 1");
  ACTCOMP_CHECK(!cfg.cost_ladder.empty(),
                "ResilientServingConfig.cost_ladder is empty — rung 0 must "
                "price the clean path");
  for (size_t i = 0; i < cfg.cost_ladder.size(); ++i) {
    ACTCOMP_CHECK(static_cast<bool>(cfg.cost_ladder[i]),
                  "ResilientServingConfig.cost_ladder[" << i
                                                        << "] is not set");
  }
  // Per-replica admission semantics are exactly ServingConfig's, so the
  // request-level validation (sorted arrivals, budget feasibility, ...) is
  // too.
  validate_serving_inputs(requests, cfg.base_config());
  ACTCOMP_CHECK(cfg.replica_faults.empty() ||
                    cfg.replica_faults.size() ==
                        static_cast<size_t>(cfg.num_replicas),
                "ResilientServingConfig.replica_faults has "
                    << cfg.replica_faults.size() << " specs for "
                    << cfg.num_replicas
                    << " replicas — must be empty or one per replica");
  for (const ReplicaFaultSpec& s : cfg.replica_faults) s.validate();
  ACTCOMP_CHECK(cfg.retry.max_attempts >= 1 && cfg.retry.max_attempts <= 16,
                "RetryPolicy.max_attempts = " << cfg.retry.max_attempts
                                              << ", must be in [1, 16]");
  auto check_knob = [](double v, const char* name) {
    ACTCOMP_CHECK(std::isfinite(v) && v >= 0.0,
                  name << " = " << v << ", must be finite and >= 0");
  };
  check_knob(cfg.retry.backoff_ms, "RetryPolicy.backoff_ms");
  check_knob(cfg.retry.timeout_ms, "RetryPolicy.timeout_ms");
  check_knob(cfg.retry.hedge_after_ms, "RetryPolicy.hedge_after_ms");
  ACTCOMP_CHECK(cfg.retry.hedge_after_ms <= 0.0 || cfg.num_replicas >= 2,
                "RetryPolicy.hedge_after_ms = "
                    << cfg.retry.hedge_after_ms
                    << " with a single replica — a hedge needs somewhere "
                       "else to go");
  ACTCOMP_CHECK(cfg.admission.max_queued_tokens >= 0,
                "AdmissionPolicy.max_queued_tokens = "
                    << cfg.admission.max_queued_tokens << ", must be >= 0");
  check_knob(cfg.admission.shed_wait_over_ms,
             "AdmissionPolicy.shed_wait_over_ms");
  check_knob(cfg.slo_e2e_p99_ms, "ResilientServingConfig.slo_e2e_p99_ms");
  check_knob(cfg.eject_ms, "ResilientServingConfig.eject_ms");
  if (cfg.degrade.enabled) {
    ACTCOMP_CHECK(cfg.slo_e2e_p99_ms > 0.0,
                  "ServingDegradeSpec.enabled requires a positive "
                  "slo_e2e_p99_ms — there is no SLO to defend");
    ACTCOMP_CHECK(cfg.cost_ladder.size() >= 2,
                  "ServingDegradeSpec.enabled requires a cost_ladder with "
                  ">= 2 rungs — there is nothing to escalate to");
    // The controller's constructor checks window, hold_windows and
    // recover_fraction.
    SloDegradationController(cfg.degrade, cfg.slo_e2e_p99_ms,
                             static_cast<int>(cfg.cost_ladder.size()));
  }
}

namespace {

/// Fills the derived aggregates of a report whose `requests` and `steps` are
/// already populated: busy_ms (sum of step durations in step order),
/// completed / generated_tokens, the ttft/tpot/e2e percentiles, makespan and
/// the event-sweep mean concurrency. Only completed requests (`outcomes` has
/// the same indexing as rep.requests) contribute, so shed and failed requests
/// keep their empty timelines out of the latency statistics.
void finalize_serving_report(ServingReport& rep,
                             const std::vector<RequestOutcome>& outcomes) {
  for (const StepTiming& s : rep.steps) rep.busy_ms += s.end_ms - s.start_ms;
  if (rep.requests.empty()) return;
  const auto completed = [&outcomes](size_t i) {
    return outcomes[i] == RequestOutcome::kCompleted;
  };

  std::vector<double> ttft, tpot, e2e;
  for (size_t i = 0; i < rep.requests.size(); ++i) {
    if (!completed(i)) continue;
    const RequestTiming& t = rep.requests[i];
    rep.completed += 1;
    rep.generated_tokens += t.generated;
    if (t.generated >= 1) ttft.push_back(t.ttft_ms());
    if (t.generated >= 2) tpot.push_back(t.tpot_ms());
    e2e.push_back(t.e2e_ms());
  }
  rep.ttft = latency_percentiles(std::move(ttft));
  rep.tpot = latency_percentiles(std::move(tpot));
  rep.e2e = latency_percentiles(std::move(e2e));

  // Makespan runs from the first ARRIVAL (of any request, even one later
  // shed — it still offered load) to the last counted completion.
  const double t0 = rep.requests.front().arrival_ms;
  double t1 = t0;
  for (size_t i = 0; i < rep.requests.size(); ++i) {
    if (completed(i)) t1 = std::max(t1, rep.requests[i].done_ms);
  }
  rep.makespan_ms = t1 - t0;

  // Mean concurrency by event-sweep time integration — measured
  // independently of the per-request latencies so Little's law is a real
  // cross-check of the bookkeeping, not an algebraic identity.
  struct Event {
    double t;
    int delta;
  };
  std::vector<Event> events;
  events.reserve(rep.requests.size() * 2);
  for (size_t i = 0; i < rep.requests.size(); ++i) {
    if (!completed(i)) continue;
    const RequestTiming& t = rep.requests[i];
    events.push_back({t.arrival_ms, +1});
    events.push_back({t.done_ms, -1});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t < b.t || (a.t == b.t && a.delta < b.delta);
  });
  double integral = 0.0, prev = t0;
  int count = 0;
  for (const Event& ev : events) {
    integral += static_cast<double>(count) * (ev.t - prev);
    count += ev.delta;
    prev = ev.t;
  }
  rep.mean_concurrency = rep.makespan_ms > 0.0 ? integral / rep.makespan_ms : 0.0;
}

enum class CopyState { kQueued, kRunning, kDone, kCancelled, kKilled };

struct Copy {
  size_t req = 0;
  int replica = 0;
  bool hedge = false;
  CopyState state = CopyState::kQueued;
  int64_t cached = 0;     ///< KV positions committed
  int64_t generated = 0;
  int64_t reserved = 0;   ///< budget tokens held on its replica (0 = freed)
  double admit_ms = 0.0;
  double first_token_ms = 0.0;
};

struct RequestState {
  bool resolved = false;
  RequestOutcome outcome = RequestOutcome::kFailed;
  int attempts = 0;       ///< primary dispatches (hedges excluded)
  bool hedged = false;
  int live = 0;           ///< copies currently queued or running
  bool retry_pending = false;
  std::vector<int64_t> copy_ids;
};

// The discrete-event scheduler's event kinds. Arrivals are not events: the
// loop reads them through a cursor over the sorted trace and handles every
// arrival at an instant before any event at that instant. The kind value
// doubles as the tie-break priority at equal timestamps (a step that ends
// exactly when its replica crashes still counts). seq — a monotone insertion
// counter — is the final tie-break, so the heap order is a total order and
// the whole simulation is deterministic.
enum EventKind {
  kEvRetry = 0,
  kEvRecover = 1,
  kEvStepEnd = 2,
  kEvCrash = 3,
  kEvHedge = 4,
  kEvTimeout = 5,
};

struct Event {
  double t = 0.0;
  int kind = 0;
  uint64_t seq = 0;
  int64_t a = 0;  ///< request index / replica / copy id, by kind
  uint64_t b = 0; ///< step serial for kEvStepEnd
};

struct EventAfter {
  bool operator()(const Event& x, const Event& y) const {
    if (x.t != y.t) return x.t > y.t;
    if (x.kind != y.kind) return x.kind > y.kind;
    return x.seq > y.seq;
  }
};

struct Replica {
  std::deque<int64_t> queue;        ///< copy ids awaiting admission (lazy)
  std::vector<int64_t> running;     ///< decode batch
  std::vector<int64_t> step_admitted; ///< copies in the in-flight prefill
  bool up = true;
  bool busy = false;
  uint64_t step_serial = 0;  ///< bumped on crash; stale step-ends carry old
  bool step_prefill = false;
  double step_start = 0.0, step_end = 0.0;
  int64_t step_seqs = 0, step_new_tokens = 0;
  double last_end = 0.0;
  int64_t reserved = 0;       ///< admitted KV tokens held
  int64_t queued_tokens = 0;  ///< KV tokens of live queued copies
  double down_until = 0.0;
  double ejected_until = 0.0;
  double ewma_step_ms = 0.0;  ///< for predicted-wait shedding
  ReplicaFaultProcess faults;
  ReplicaStats stats;

  explicit Replica(const ReplicaFaultSpec& spec) : faults(spec) {}
};

class ResilientScheduler {
 public:
  ResilientScheduler(const std::vector<ServingRequest>& requests,
                     const ResilientServingConfig& cfg)
      : requests_(requests), cfg_(cfg) {}

  ResilientServingReport run() {
    // The step timeline is the largest allocation of a replay. Reserved
    // once, before anything else, it lands in the same free block on every
    // call with the same trace, so repeated replays hold a steady peak RSS.
    // Grown by doubling instead, it leaves 10-25 MB holes in the heap that
    // later calls fill differently, and the peak climbs at random calls.
    steps_.reserve(step_bound());
    ResilientServingReport out;
    out.offered = static_cast<int64_t>(requests_.size());
    out.serving.requests.resize(requests_.size());
    for (size_t i = 0; i < requests_.size(); ++i) {
      out.serving.requests[i].arrival_ms = requests_[i].arrival_ms;
      out.serving.requests[i].prompt_tokens = requests_[i].prompt_tokens;
    }
    out.replicas.resize(static_cast<size_t>(cfg_.num_replicas));
    rep_ = &out;

    for (int r = 0; r < cfg_.num_replicas; ++r) {
      replicas_.emplace_back(cfg_.replica_faults.empty()
                                 ? ReplicaFaultSpec{}
                                 : cfg_.replica_faults[static_cast<size_t>(r)]);
    }
    if (cfg_.degrade.enabled) {
      controller_.emplace(cfg_.degrade, cfg_.slo_e2e_p99_ms,
                          static_cast<int>(cfg_.cost_ladder.size()));
    }
    state_.resize(requests_.size());

    if (requests_.empty()) {
      finalize(out);
      return out;
    }

    for (int r = 0; r < cfg_.num_replicas; ++r) {
      schedule_crash(r, 0.0);
    }

    size_t next = 0;  // arrival cursor; validation requires sorted arrivals
    while (resolved_ < requests_.size()) {
      ACTCOMP_ASSERT(next < requests_.size() || !heap_.empty(),
                     "resilient serving scheduler stalled with "
                         << requests_.size() - resolved_
                         << " requests unresolved");
      double t = next < requests_.size()
                     ? requests_[next].arrival_ms
                     : std::numeric_limits<double>::infinity();
      if (!heap_.empty()) t = std::min(t, heap_.top().t);
      // Handle EVERYTHING at this instant before dispatching: arrivals
      // first, so same-time arrivals form one admission wave, then every
      // event — a handler that schedules a zero-delay follow-up at t gets it
      // handled in the same drain.
      for (; next < requests_.size() && requests_[next].arrival_ms == t; ++next) {
        on_arrival(next, t);
      }
      while (!heap_.empty() && heap_.top().t == t) {
        const Event ev = heap_.top();
        heap_.pop();
        handle(ev);
      }
      for (int r = 0; r < cfg_.num_replicas; ++r) maybe_dispatch(r, t);
    }

    finalize(out);
    return out;
  }

 private:
  int64_t need(const Copy& c) const {
    const ServingRequest& r = requests_[c.req];
    return r.prompt_tokens + r.max_new_tokens;
  }

  void push(Event ev) {
    ev.seq = seq_++;
    heap_.push(ev);
  }

  void schedule_crash(int r, double from_ms) {
    const double at = replicas_[static_cast<size_t>(r)].faults
                          .draw_crash_after(from_ms);
    if (std::isfinite(at)) push({at, kEvCrash, 0, r, 0});
  }

  int active_level() const { return controller_ ? controller_->level() : 0; }

  double price(const StepShape& shape) const {
    const size_t lv = std::min(static_cast<size_t>(active_level()),
                               cfg_.cost_ladder.size() - 1);
    const double ms = cfg_.cost_ladder[lv](shape);
    ACTCOMP_CHECK(std::isfinite(ms) && ms >= 0.0,
                  "cost_ladder[" << lv << "] returned " << ms << " for a "
                                 << (shape.prefill ? "prefill" : "decode")
                                 << " step — must be finite and >= 0");
    return ms;
  }

  int64_t live_load(int r) const {
    const Replica& rep = replicas_[static_cast<size_t>(r)];
    int64_t load = 0;
    for (const int64_t cid : rep.queue) {
      if (copies_[static_cast<size_t>(cid)].state == CopyState::kQueued) ++load;
    }
    for (const int64_t cid : rep.running) {
      if (copies_[static_cast<size_t>(cid)].state == CopyState::kRunning) ++load;
    }
    for (const int64_t cid : rep.step_admitted) {
      if (copies_[static_cast<size_t>(cid)].state == CopyState::kRunning) ++load;
    }
    return load;
  }

  int64_t queued_live(int r) const {
    const Replica& rep = replicas_[static_cast<size_t>(r)];
    int64_t n = 0;
    for (const int64_t cid : rep.queue) {
      if (copies_[static_cast<size_t>(cid)].state == CopyState::kQueued) ++n;
    }
    return n;
  }

  int route(double t, int exclude) {
    const int R = cfg_.num_replicas;
    if (cfg_.policy == RoutePolicy::kRoundRobin) {
      // Blind: cycles through every replica, down or not. The baseline the
      // ablation measures the smarter policies against.
      for (int k = 0; k < R; ++k) {
        const int r = static_cast<int>(rr_next_++ % static_cast<uint64_t>(R));
        if (r != exclude) return r;
      }
      return 0;  // unreachable: exclude is only set when R >= 2
    }
    auto pick = [&](auto&& eligible) {
      int best = -1;
      int64_t best_load = 0;
      for (int r = 0; r < R; ++r) {
        if (r == exclude || !eligible(r)) continue;
        const int64_t load = live_load(r);
        if (best < 0 || load < best_load) {
          best = r;
          best_load = load;
        }
      }
      return best;
    };
    int r = -1;
    if (cfg_.policy == RoutePolicy::kHealthAware) {
      r = pick([&](int q) {
        const Replica& rep = replicas_[static_cast<size_t>(q)];
        return rep.up && t >= rep.ejected_until;
      });
    }
    if (r < 0) {
      r = pick([&](int q) { return replicas_[static_cast<size_t>(q)].up; });
    }
    if (r < 0) {
      r = pick([](int) { return true; });
    }
    return r;
  }

  void dispatch_to(size_t i, int r, double t, bool hedge) {
    RequestState& st = state_[i];
    const int64_t cid = static_cast<int64_t>(copies_.size());
    Copy c;
    c.req = i;
    c.replica = r;
    c.hedge = hedge;
    copies_.push_back(c);
    if (!hedge) ++st.attempts;
    ++st.live;
    st.copy_ids.push_back(cid);
    Replica& rep = replicas_[static_cast<size_t>(r)];
    rep.queue.push_back(cid);
    rep.queued_tokens += need(c);
    ++rep_->dispatches;
    if (cfg_.retry.timeout_ms > 0.0) {
      push({t + cfg_.retry.timeout_ms, kEvTimeout, 0, cid, 0});
    }
    // The hedge timer arms once, on the first primary dispatch.
    if (!hedge && st.attempts == 1 && cfg_.retry.hedge_after_ms > 0.0) {
      push({t + cfg_.retry.hedge_after_ms, kEvHedge, 0,
            static_cast<int64_t>(i), 0});
    }
  }

  double predicted_wait(int r, double t) const {
    const Replica& rep = replicas_[static_cast<size_t>(r)];
    double w = 0.0;
    if (!rep.up) {
      w += rep.down_until - t;
    } else if (rep.busy) {
      w += rep.step_end - t;
    }
    w += static_cast<double>(queued_live(r)) * rep.ewma_step_ms;
    return w;
  }

  void shed(size_t i) {
    RequestState& st = state_[i];
    st.resolved = true;
    st.outcome = RequestOutcome::kShed;
    ++resolved_;
    ++rep_->shed;
  }

  void on_arrival(size_t i, double t) {
    const int64_t tokens =
        requests_[i].prompt_tokens + requests_[i].max_new_tokens;
    if (cfg_.admission.max_queued_tokens > 0) {
      int64_t fleet = 0;
      for (const Replica& rep : replicas_) {
        fleet += rep.reserved + rep.queued_tokens;
      }
      if (fleet + tokens > cfg_.admission.max_queued_tokens) {
        shed(i);
        return;
      }
    }
    const int r = route(t, -1);
    if (cfg_.admission.shed_wait_over_ms > 0.0 &&
        predicted_wait(r, t) > cfg_.admission.shed_wait_over_ms) {
      shed(i);
      return;
    }
    dispatch_to(i, r, t, false);
  }

  void on_retry(size_t i, double t) {
    RequestState& st = state_[i];
    st.retry_pending = false;
    if (st.resolved) return;
    ++rep_->retries;
    dispatch_to(i, route(t, -1), t, false);
  }

  void on_hedge(size_t i, double t) {
    RequestState& st = state_[i];
    if (st.resolved || st.hedged || st.live == 0) return;
    // Route away from the live primary's replica — a hedge on the same box
    // would just queue behind the copy it is meant to race.
    int exclude = -1;
    for (const int64_t cid : st.copy_ids) {
      const Copy& c = copies_[static_cast<size_t>(cid)];
      if (c.state == CopyState::kQueued || c.state == CopyState::kRunning) {
        exclude = c.replica;
        break;
      }
    }
    st.hedged = true;
    ++rep_->hedges;
    dispatch_to(i, route(t, exclude), t, true);
  }

  void on_timeout(int64_t cid, double t) {
    Copy& c = copies_[static_cast<size_t>(cid)];
    if (c.state != CopyState::kQueued && c.state != CopyState::kRunning) return;
    Replica& rep = replicas_[static_cast<size_t>(c.replica)];
    if (c.state == CopyState::kQueued) rep.queued_tokens -= need(c);
    // A running copy keeps its reservation until the sweep at its step end —
    // the KV memory really is held until the batch moves on.
    c.state = CopyState::kCancelled;
    --state_[c.req].live;
    ++rep.stats.timeouts;
    ++rep_->timeouts;
    if (cfg_.policy == RoutePolicy::kHealthAware && cfg_.eject_ms > 0.0) {
      rep.ejected_until = std::max(rep.ejected_until, t + cfg_.eject_ms);
    }
    resolve_or_retry(c.req, t);
  }

  void resolve_or_retry(size_t i, double t) {
    RequestState& st = state_[i];
    if (st.resolved || st.retry_pending || st.live > 0) return;
    if (st.attempts < cfg_.retry.max_attempts) {
      st.retry_pending = true;
      const double delay =
          cfg_.retry.backoff_ms *
          static_cast<double>(int64_t{1} << (st.attempts - 1));
      push({t + delay, kEvRetry, 0, static_cast<int64_t>(i), 0});
    } else {
      st.resolved = true;
      st.outcome = RequestOutcome::kFailed;
      ++resolved_;
      ++rep_->failed;
    }
  }

  /// Releases a cancelled/killed copy still holding a reservation; its
  /// generated tokens were real work that reached no user.
  void free_loser(Copy& c, Replica& rep) {
    rep.reserved -= c.reserved;
    c.reserved = 0;
    rep_->wasted_tokens += c.generated;
  }

  void sweep_running(Replica& rep) {
    size_t keep = 0;
    for (size_t k = 0; k < rep.running.size(); ++k) {
      Copy& c = copies_[static_cast<size_t>(rep.running[k])];
      if (c.state == CopyState::kRunning) {
        rep.running[keep++] = rep.running[k];
      } else {
        free_loser(c, rep);
      }
    }
    rep.running.resize(keep);
  }

  void complete_copy(int64_t cid, int r, double end_ms) {
    Copy& c = copies_[static_cast<size_t>(cid)];
    Replica& rep = replicas_[static_cast<size_t>(r)];
    RequestState& st = state_[c.req];
    rep.reserved -= c.reserved;
    c.reserved = 0;
    --st.live;
    if (st.resolved) {
      // A sibling copy of the same request finished earlier in this very
      // step; this one is a well-timed loser.
      c.state = CopyState::kCancelled;
      rep_->wasted_tokens += c.generated;
      return;
    }
    c.state = CopyState::kDone;
    st.resolved = true;
    st.outcome = RequestOutcome::kCompleted;
    ++resolved_;
    RequestTiming& rt = rep_->serving.requests[c.req];
    rt.admit_ms = c.admit_ms;
    rt.first_token_ms = c.first_token_ms;
    rt.done_ms = end_ms;
    rt.generated = c.generated;
    ++rep.stats.completed;
    if (c.hedge) ++rep_->hedge_wins;
    // First-wins: every other live copy of this request is cancelled. Queued
    // losers leave immediately; running losers are swept at their step end.
    for (const int64_t ocid : st.copy_ids) {
      if (ocid == cid) continue;
      Copy& o = copies_[static_cast<size_t>(ocid)];
      if (o.state == CopyState::kQueued) {
        replicas_[static_cast<size_t>(o.replica)].queued_tokens -= need(o);
        o.state = CopyState::kCancelled;
        --st.live;
      } else if (o.state == CopyState::kRunning) {
        o.state = CopyState::kCancelled;
        --st.live;
      }
    }
    if (controller_) controller_->observe_e2e(rt.e2e_ms());
  }

  void on_step_end(int r, uint64_t serial) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    if (!rep.up || !rep.busy || serial != rep.step_serial) return;  // stale
    rep.busy = false;
    rep.last_end = rep.step_end;
    const double dur = rep.step_end - rep.step_start;
    ++rep.stats.steps;
    rep.stats.busy_ms += dur;
    rep.ewma_step_ms = rep.ewma_step_ms == 0.0
                           ? dur
                           : 0.5 * dur + 0.5 * rep.ewma_step_ms;
    steps_.push_back({rep.step_prefill, rep.step_start, rep.step_end,
                      rep.step_seqs, rep.step_new_tokens, r});
    if (rep.step_prefill) {
      for (const int64_t cid : rep.step_admitted) {
        Copy& c = copies_[static_cast<size_t>(cid)];
        if (c.state != CopyState::kRunning) {
          free_loser(c, rep);
          continue;
        }
        c.admit_ms = rep.step_start;
        c.first_token_ms = rep.step_end;
        c.generated = std::min<int64_t>(1, requests_[c.req].max_new_tokens);
        if (c.generated == requests_[c.req].max_new_tokens) {
          complete_copy(cid, r, rep.step_end);
        } else {
          rep.running.push_back(cid);
        }
      }
      rep.step_admitted.clear();
    } else {
      size_t keep = 0;
      for (size_t k = 0; k < rep.running.size(); ++k) {
        const int64_t cid = rep.running[k];
        Copy& c = copies_[static_cast<size_t>(cid)];
        if (c.state != CopyState::kRunning) {
          free_loser(c, rep);
          continue;
        }
        c.cached += 1;
        c.generated += 1;
        if (c.generated == requests_[c.req].max_new_tokens) {
          complete_copy(cid, r, rep.step_end);
        } else {
          rep.running[keep++] = cid;
        }
      }
      rep.running.resize(keep);
    }
  }

  void on_crash(int r, double t) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    if (!rep.up) return;
    rep.up = false;
    rep.busy = false;
    ++rep.step_serial;  // the in-flight step's end event is now stale
    ++rep.stats.crashes;
    ++rep_->crashes;
    const double repair = rep.faults.spec().repair_ms;
    rep.stats.down_ms += repair;
    rep.down_until = t + repair;
    // Everything on the replica dies: the in-flight step's work, the decode
    // batch, and the queue. Affected requests go through the retry policy.
    std::vector<size_t> affected;
    auto kill = [&](int64_t cid) {
      Copy& c = copies_[static_cast<size_t>(cid)];
      if (c.state == CopyState::kQueued) {
        rep.queued_tokens -= need(c);
        c.state = CopyState::kKilled;
        --state_[c.req].live;
        ++rep_->killed_copies;
        affected.push_back(c.req);
      } else if (c.state == CopyState::kRunning) {
        free_loser(c, rep);
        c.state = CopyState::kKilled;
        --state_[c.req].live;
        ++rep_->killed_copies;
        affected.push_back(c.req);
      } else if (c.reserved > 0) {
        free_loser(c, rep);  // cancelled-but-unswept still held KV
      }
    };
    for (const int64_t cid : rep.step_admitted) kill(cid);
    for (const int64_t cid : rep.running) kill(cid);
    for (const int64_t cid : rep.queue) kill(cid);
    rep.step_admitted.clear();
    rep.running.clear();
    rep.queue.clear();
    rep.queued_tokens = 0;
    ACTCOMP_ASSERT(rep.reserved == 0,
                   "replica " << r << " crashed with " << rep.reserved
                              << " reserved tokens unaccounted");
    push({rep.down_until, kEvRecover, 0, r, 0});
    for (const size_t i : affected) resolve_or_retry(i, t);
  }

  void on_recover(int r, double t) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    if (rep.up) return;
    rep.up = true;
    rep.last_end = std::max(rep.last_end, t);
    schedule_crash(r, t);
  }

  void handle(const Event& ev) {
    switch (ev.kind) {
      case kEvRetry: on_retry(static_cast<size_t>(ev.a), ev.t); break;
      case kEvRecover: on_recover(static_cast<int>(ev.a), ev.t); break;
      case kEvStepEnd: on_step_end(static_cast<int>(ev.a), ev.b); break;
      case kEvCrash: on_crash(static_cast<int>(ev.a), ev.t); break;
      case kEvHedge: on_hedge(static_cast<size_t>(ev.a), ev.t); break;
      case kEvTimeout: on_timeout(ev.a, ev.t); break;
      default: ACTCOMP_ASSERT(false, "unknown event kind " << ev.kind);
    }
  }

  void maybe_dispatch(int r, double t) {
    Replica& rep = replicas_[static_cast<size_t>(r)];
    if (!rep.up || rep.busy) return;
    sweep_running(rep);
    // Admission wave: FIFO under max_batch and the token budget, stopping at
    // the first head that does not fit.
    std::vector<int64_t> admitted;
    int64_t prompts = 0, context = 0;
    while (!rep.queue.empty()) {
      const int64_t cid = rep.queue.front();
      Copy& c = copies_[static_cast<size_t>(cid)];
      if (c.state != CopyState::kQueued) {  // lazily drop dead entries
        rep.queue.pop_front();
        continue;
      }
      const ServingRequest& q = requests_[c.req];
      if (static_cast<int64_t>(rep.running.size() + admitted.size()) >=
          cfg_.max_batch) {
        break;
      }
      const int64_t tokens = q.prompt_tokens + q.max_new_tokens;
      if (rep.reserved + tokens > cfg_.token_budget) break;
      rep.queue.pop_front();
      rep.queued_tokens -= tokens;
      c.state = CopyState::kRunning;
      c.reserved = tokens;
      c.cached = q.prompt_tokens;
      rep.reserved += tokens;
      prompts += q.prompt_tokens;
      context += q.prompt_tokens * (q.prompt_tokens + 1) / 2;
      admitted.push_back(cid);
    }

    StepShape shape;
    if (!admitted.empty()) {
      shape = {true, static_cast<int64_t>(admitted.size()), prompts, context};
    } else if (!rep.running.empty()) {
      int64_t ctx = 0;
      for (const int64_t cid : rep.running) {
        ctx += copies_[static_cast<size_t>(cid)].cached + 1;
      }
      shape = {false, static_cast<int64_t>(rep.running.size()),
               static_cast<int64_t>(rep.running.size()), ctx};
    } else {
      return;  // idle
    }
    const double start = std::max(rep.last_end, t);
    // Brown-out multiplier is exactly 1.0 when the fault process is off, so
    // the clean path's durations are the cost function's, bit for bit.
    const double dur = price(shape) * rep.faults.slow_multiplier_at(start);
    rep.busy = true;
    rep.step_prefill = shape.prefill;
    rep.step_start = start;
    rep.step_end = start + dur;
    rep.step_seqs = shape.seqs;
    rep.step_new_tokens = shape.new_tokens;
    rep.step_admitted = std::move(admitted);
    push({rep.step_end, kEvStepEnd, 0, r, rep.step_serial});
  }

  /// Steps one fault-free replica runs at most: each prefill admits at least
  /// one request and each decode step generates a token for at least one, so
  /// n + sum(max_new_tokens - 1) bounds the count (max_batch 1 reaches it).
  /// Retries, hedges and restarts after a crash can exceed it; the timeline
  /// then grows as usual. Capped so a loose bound cannot reserve unbounded
  /// memory.
  size_t step_bound() const {
    constexpr size_t kMaxReservedSteps = size_t{1} << 21;
    size_t bound = 0;
    for (const ServingRequest& r : requests_) {
      if (bound >= kMaxReservedSteps) break;
      bound += 1 + static_cast<size_t>(std::max<int64_t>(r.max_new_tokens - 1, 0));
    }
    return std::min(bound, kMaxReservedSteps);
  }

  void finalize(ResilientServingReport& out) {
    // Steps from all replicas merge into one timeline ordered by start time;
    // stable sort keeps the deterministic scheduling order among ties. One
    // replica's steps are already in start order, so the sort is skipped.
    const auto by_start = [](const StepTiming& x, const StepTiming& y) {
      return x.start_ms < y.start_ms;
    };
    if (!std::is_sorted(steps_.begin(), steps_.end(), by_start)) {
      std::stable_sort(steps_.begin(), steps_.end(), by_start);
    }
    out.serving.steps = std::move(steps_);
    out.outcomes.resize(requests_.size());
    for (size_t i = 0; i < requests_.size(); ++i) {
      out.outcomes[i] = state_[i].outcome;
    }
    finalize_serving_report(out.serving, out.outcomes);
    for (int r = 0; r < cfg_.num_replicas; ++r) {
      out.replicas[static_cast<size_t>(r)] =
          replicas_[static_cast<size_t>(r)].stats;
    }
    if (controller_) {
      out.escalations = controller_->escalations();
      out.deescalations = controller_->deescalations();
      out.final_level = controller_->level();
      out.max_level_seen = controller_->max_level_seen();
    }
  }

  const std::vector<ServingRequest>& requests_;
  const ResilientServingConfig& cfg_;
  ResilientServingReport* rep_ = nullptr;
  std::vector<Replica> replicas_;
  std::vector<Copy> copies_;
  std::vector<RequestState> state_;
  std::vector<StepTiming> steps_;
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
  std::optional<SloDegradationController> controller_;
  uint64_t seq_ = 0;
  uint64_t rr_next_ = 0;
  size_t resolved_ = 0;
};

}  // namespace

ResilientServingReport simulate_serving_resilient(
    const std::vector<ServingRequest>& requests,
    const ResilientServingConfig& cfg) {
  validate_resilient_serving_inputs(requests, cfg);
  ResilientScheduler sched(requests, cfg);
  return sched.run();
}

}  // namespace actcomp::sim
