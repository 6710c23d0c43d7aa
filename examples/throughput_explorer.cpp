// Throughput explorer: "should I compress my model-parallel training job?"
//
// The practitioner-facing front end to the calibrated simulator: give it a
// platform, a parallel layout, and a job shape, and it predicts the
// per-iteration time of every compression setting plus a breakdown of the
// winner — the decision the paper's Tables 2-7 answer for BERT-Large.
//
//   $ ./throughput_explorer [--faults] [--mtbf <ms>] [--ckpt-interval <steps>]
//                           [--dp <replicas>] [--topology <spine>]
//                           [--serve] [--rate <req/s>] [--prompt <tokens>]
//                           [--gen <tokens>] [--requests <n>]
//                           [--trace-out <file>] [--trace-in <file>]
//                           [--replicas <n>] [--serve-policy rr|jsq|health]
//                           [--serve-mtbf <ms>] [--serve-repair <ms>]
//                           [--serve-timeout <ms>] [--hedge <ms>]
//                           [--serve-slo <p99 ms>]
//                           [pcie|nvlink|multinode|datacenter] [tp] [pp]
//                           [micro_batch] [num_micro] [seq]
//   $ ./throughput_explorer nvlink 4 1 32 1 512
//   $ ./throughput_explorer --faults pcie 2 2 32 4
//   $ ./throughput_explorer --faults --mtbf 3600000 --ckpt-interval 200 pcie
//   $ ./throughput_explorer --dp 16 --topology oversub:4 datacenter 8 4 16 32
//   $ ./throughput_explorer --serve --rate 6 nvlink 4 1
//
// --dp adds a data-parallel axis (dp replicas of the tp x pp grid; the
// cluster is sized to tp*pp*dp GPUs on the multi-node platforms — pcie and
// nvlink are fixed 4-GPU boxes, so dp must satisfy tp*pp*dp == 4 there).
// --topology picks the spine above the nodes: flat (default), fat-tree, or
// oversub[:factor] (Ethernet uplinks at 1/factor bandwidth, default 4).
// The datacenter platform is 8-GPU NVLink islands under a 100 GbE spine.
//
// With --faults, each setting is additionally replayed under seeded fault
// scenarios (a straggler stage and a flaky link — see sim/faults.h) and the
// p50/p95/p99 makespan is reported, answering "which compressor is most
// robust", not just "which is fastest on a clean cluster".
//
// With --serve, the explorer answers the same question for inference
// serving instead of stopping at training: a seeded Poisson stream of
// (--requests) generation requests of shape --prompt/--gen at --rate req/s
// is replayed through the continuous-batching serving simulator
// (sim/serving.h) once per compression setting, with every scheduler step
// priced by the same compressed-TP-collective rules as the training
// forward. Reported per setting: TTFT and per-output-token latency
// percentiles, end-to-end p99, and throughput.
//
// --trace-out writes the arrival trace to a JSON file and --trace-in
// replays one (sim/serving_trace.h), so two invocations — different
// policies, fleet sizes, machines — score the exact same workload.
// --replicas > 1, --serve-mtbf, or --serve-slo switch the serving run to
// the fault-tolerant fleet runtime (sim/serving_resilience.h): each
// replica gets a seeded crash/recovery process (--serve-mtbf/--serve-repair),
// the router policy is --serve-policy (rr | jsq | health), requests retry
// after --serve-timeout ms, --hedge duplicates a straggling request to a
// second replica, and --serve-slo arms the SLO-aware degradation ladder
// (w/o -> Q8 -> Q4 -> Top-K) that escalates compression when the measured
// p99 breaches the target and de-escalates with hysteresis.
//
// With --mtbf <per-stage MTBF, ms>, the explorer also projects the job onto
// the crash-recovery model (sim/recovery.h): using the best setting's
// iteration time as the step cost, it reports the Young/Daly optimal
// checkpoint interval, the Monte-Carlo-simulated optimum, and the goodput
// at --ckpt-interval <steps> (defaults to the Young/Daly interval) so an
// operator can see what their current interval is costing them.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include <cmath>

#include "bench/lab.h"
#include "core/compression_plan.h"
#include "parallel/mp_simulator.h"
#include "sim/faults.h"
#include "sim/hardware.h"
#include "sim/recovery.h"
#include "sim/serving.h"
#include "sim/serving_resilience.h"
#include "sim/serving_trace.h"

namespace {

int explore(int argc, char** argv) {
  using namespace actcomp;
  obs::RunReport report("throughput_explorer");
  bool faults_mode = false;
  bool serve_mode = false;
  double mtbf_ms = 0.0;           // per-stage MTBF; 0 = no recovery projection
  int64_t ckpt_interval = 0;      // steps; 0 = use the Young/Daly interval
  int dp = 1;
  double rate_per_s = 2.0;        // --serve arrival rate
  int64_t serve_prompt = 128;
  int64_t serve_gen = 32;
  int serve_requests = 64;
  std::string trace_in, trace_out;
  int replicas = 1;
  std::string serve_policy = "jsq";
  double serve_mtbf = 0.0;    // per-replica crash MTBF; 0 = no crashes
  double serve_repair = 0.0;  // 0 = default to mtbf / 10
  double serve_timeout = 0.0;
  double hedge_after = 0.0;
  double serve_slo = 0.0;  // e2e p99 target; 0 = no degradation ladder
  std::string topology = "flat";
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--faults") {
      faults_mode = true;
    } else if (a == "--serve") {
      serve_mode = true;
    } else if (a == "--rate" && i + 1 < argc) {
      rate_per_s = std::atof(argv[++i]);
    } else if (a == "--prompt" && i + 1 < argc) {
      serve_prompt = std::atoll(argv[++i]);
    } else if (a == "--gen" && i + 1 < argc) {
      serve_gen = std::atoll(argv[++i]);
    } else if (a == "--requests" && i + 1 < argc) {
      serve_requests = std::atoi(argv[++i]);
    } else if (a == "--trace-in" && i + 1 < argc) {
      trace_in = argv[++i];
    } else if (a == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (a == "--replicas" && i + 1 < argc) {
      replicas = std::atoi(argv[++i]);
    } else if (a == "--serve-policy" && i + 1 < argc) {
      serve_policy = argv[++i];
    } else if (a == "--serve-mtbf" && i + 1 < argc) {
      serve_mtbf = std::atof(argv[++i]);
    } else if (a == "--serve-repair" && i + 1 < argc) {
      serve_repair = std::atof(argv[++i]);
    } else if (a == "--serve-timeout" && i + 1 < argc) {
      serve_timeout = std::atof(argv[++i]);
    } else if (a == "--hedge" && i + 1 < argc) {
      hedge_after = std::atof(argv[++i]);
    } else if (a == "--serve-slo" && i + 1 < argc) {
      serve_slo = std::atof(argv[++i]);
    } else if (a == "--mtbf" && i + 1 < argc) {
      mtbf_ms = std::atof(argv[++i]);
    } else if (a == "--ckpt-interval" && i + 1 < argc) {
      ckpt_interval = std::atoll(argv[++i]);
    } else if (a == "--dp" && i + 1 < argc) {
      dp = std::atoi(argv[++i]);
    } else if (a == "--topology" && i + 1 < argc) {
      topology = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  const size_t n = args.size();
  const std::string platform = n > 0 ? args[0] : "pcie";
  const int tp = n > 1 ? std::atoi(args[1]) : 2;
  const int pp = n > 2 ? std::atoi(args[2]) : 2;
  const int64_t micro = n > 3 ? std::atoll(args[3]) : 32;
  const int64_t num_micro = n > 4 ? std::atoll(args[4]) : 1;
  const int64_t seq = n > 5 ? std::atoll(args[5]) : 512;

  // Spine override: flat | fat-tree | oversub[:factor].
  sim::TopologySpec topo;
  if (topology == "fat-tree") {
    topo.spine = sim::TopologySpec::Spine::kFatTree;
  } else if (topology.rfind("oversub", 0) == 0) {
    topo.spine = sim::TopologySpec::Spine::kOversubscribed;
    const size_t colon = topology.find(':');
    topo.oversubscription =
        colon == std::string::npos ? 4.0 : std::atof(topology.c_str() + colon + 1);
  } else if (topology != "flat") {
    throw std::invalid_argument("unknown --topology '" + topology +
                                "' (flat|fat-tree|oversub[:N])");
  }

  const int total_gpus = tp * pp * dp;
  sim::ClusterSpec cluster;
  if (platform == "nvlink") {
    cluster = sim::ClusterSpec::aws_p3(1);
  } else if (platform == "multinode") {
    cluster = sim::ClusterSpec::aws_p3((total_gpus + 3) / 4);
  } else if (platform == "datacenter") {
    cluster = sim::ClusterSpec::datacenter((total_gpus + 7) / 8, topo.spine,
                                           topo.oversubscription);
  } else {
    cluster = sim::ClusterSpec::local_pcie();
  }
  if (platform != "datacenter") {
    cluster.topology = topo;
    cluster.validate();
  }

  const nn::BertConfig model = nn::BertConfig::bert_large();
  report.set_config("platform", platform);
  report.set_config("tp", int64_t{tp});
  report.set_config("pp", int64_t{pp});
  report.set_config("dp", int64_t{dp});
  report.set_config("topology", topology);
  report.set_config("micro_batch", micro);
  report.set_config("num_micro", num_micro);
  report.set_config("seq", seq);
  parallel::ModelParallelSimulator simulator(cluster, model, {tp, pp, dp},
                                             {micro, num_micro, seq});
  std::printf(
      "Platform %s | BERT-Large | TP=%d PP=%d DP=%d | micro %lld x %lld, seq "
      "%lld\n\n",
      cluster.name.c_str(), tp, pp, dp, static_cast<long long>(micro),
      static_cast<long long>(num_micro), static_cast<long long>(seq));

  double best = 1e30;
  compress::Setting best_setting = compress::Setting::kBaseline;
  std::printf("%-9s %12s %10s\n", "setting", "iter ms", "vs w/o");
  const double base = simulator.run_baseline().total_ms();
  for (compress::Setting s : compress::main_settings()) {
    const auto plan = core::CompressionPlan::paper_default(s, model.num_layers);
    const double t = simulator.run(plan).total_ms();
    std::printf("%-9s %12.2f %9.1f%%\n", compress::setting_label(s).c_str(), t,
                (base / t - 1.0) * 100.0);
    if (t < best) {
      best = t;
      best_setting = s;
    }
  }

  const auto plan =
      core::CompressionPlan::paper_default(best_setting, model.num_layers);
  // Same projection the breakdown benches use (obs/accounting.h), mirrored
  // into the report as a structured phase.
  const obs::PhaseBreakdown b =
      simulator.run(plan).phase_breakdown(obs::Accounting::kFinetune);
  report.add_phase(compress::setting_label(best_setting),
                   obs::Accounting::kFinetune, b);
  std::printf(
      "\nBest: %s (%.2f ms). Breakdown: fwd %.1f, bwd %.1f, optim %.1f,\n"
      "waiting+pipe %.1f, enc %.2f, dec %.2f, tensor comm %.2f ms.\n",
      compress::setting_label(best_setting).c_str(), b.total_ms, b.forward_ms,
      b.backward_ms, b.optimizer_ms, b.waiting_ms, b.encode_ms, b.decode_ms,
      b.tensor_comm_ms);
  if (best_setting == compress::Setting::kBaseline) {
    std::printf(
        "\nOn this configuration compression does not pay — the paper's\n"
        "Takeaway 1/8 regime (fast links or small messages).\n");
  }

  if (serve_mode) {
    std::vector<sim::ServingRequest> trace;
    if (!trace_in.empty()) {
      trace = sim::load_serving_trace(trace_in);
      serve_requests = static_cast<int>(trace.size());
      std::printf("\nReplaying %d requests from %s\n", serve_requests,
                  trace_in.c_str());
    } else {
      sim::PoissonTraceSpec spec;
      spec.rate_per_s = rate_per_s;
      spec.num_requests = serve_requests;
      spec.prompt_tokens = serve_prompt;
      spec.max_new_tokens = serve_gen;
      spec.seed = 1;
      trace = sim::poisson_trace(spec);
    }
    if (!trace_out.empty()) {
      sim::save_serving_trace(trace_out, trace);
      std::printf("\nWrote %zu-request trace to %s\n", trace.size(),
                  trace_out.c_str());
    }
    report.set_config("serve_rate_per_s", rate_per_s);
    report.set_config("serve_prompt", serve_prompt);
    report.set_config("serve_gen", serve_gen);
    report.set_config("serve_requests", int64_t{serve_requests});

    std::printf(
        "\nServing: %d Poisson requests at %.1f req/s, prompt %lld, generate "
        "%lld\n(continuous batching, max_batch 8, token budget 2048)\n\n",
        serve_requests, rate_per_s, static_cast<long long>(serve_prompt),
        static_cast<long long>(serve_gen));
    std::vector<std::string> header{"setting",  "ttft p50", "ttft p99",
                                    "tpot p50", "tpot p99", "e2e p99",
                                    "tok/s"};
    std::vector<std::vector<std::string>> body;
    double best_p99 = 1e30;
    compress::Setting best_serve = compress::Setting::kBaseline;
    for (compress::Setting s : compress::main_settings()) {
      const auto p = core::CompressionPlan::paper_default(s, model.num_layers);
      sim::ServingConfig cfg;
      cfg.max_batch = 8;
      cfg.token_budget = 2048;
      cfg.step_cost = parallel::make_serving_cost(simulator, p);
      const sim::ServingReport rep = sim::simulate_serving(trace, cfg);
      body.push_back({compress::setting_label(s), bench::fmt(rep.ttft.p50_ms),
                      bench::fmt(rep.ttft.p99_ms), bench::fmt(rep.tpot.p50_ms),
                      bench::fmt(rep.tpot.p99_ms), bench::fmt(rep.e2e.p99_ms),
                      bench::fmt(rep.throughput_tok_s())});
      if (rep.e2e.p99_ms < best_p99) {
        best_p99 = rep.e2e.p99_ms;
        best_serve = s;
      }
      obs::json::Value rec = obs::json::Value::object();
      rec.set("setting", compress::setting_label(s));
      rec.set("ttft_p99_ms", rep.ttft.p99_ms);
      rec.set("tpot_p99_ms", rep.tpot.p99_ms);
      rec.set("e2e_p99_ms", rep.e2e.p99_ms);
      rec.set("throughput_tok_s", rep.throughput_tok_s());
      report.add_record(std::move(rec));
    }
    bench::print_table(header, body, 10);
    std::printf(
        "\nBest serving setting by e2e p99: %s (%.2f ms). Decode moves one\n"
        "token per sequence, so compression pays here only when the TP link\n"
        "is slow enough that even tiny collectives are bandwidth-bound.\n",
        compress::setting_label(best_serve).c_str(), best_p99);

    if (replicas > 1 || serve_mtbf > 0.0 || serve_slo > 0.0 ||
        hedge_after > 0.0 || serve_timeout > 0.0) {
      sim::ResilientServingConfig rcfg;
      rcfg.num_replicas = replicas;
      if (serve_policy == "rr") {
        rcfg.policy = sim::RoutePolicy::kRoundRobin;
      } else if (serve_policy == "health") {
        rcfg.policy = sim::RoutePolicy::kHealthAware;
        rcfg.eject_ms = 10.0 * serve_timeout;
      } else if (serve_policy == "jsq") {
        rcfg.policy = sim::RoutePolicy::kJoinShortestQueue;
      } else {
        throw std::invalid_argument("unknown --serve-policy '" + serve_policy +
                                    "' (rr|jsq|health)");
      }
      rcfg.max_batch = 8;
      rcfg.token_budget = 2048;
      rcfg.cost_ladder =
          parallel::make_serving_cost_ladder(simulator, model.num_layers);
      if (serve_mtbf > 0.0) {
        for (int r = 0; r < replicas; ++r) {
          sim::ReplicaFaultSpec fs;
          fs.mtbf_ms = serve_mtbf;
          fs.repair_ms = serve_repair > 0.0 ? serve_repair : serve_mtbf / 10.0;
          fs.seed = 100 + static_cast<uint64_t>(r);
          rcfg.replica_faults.push_back(fs);
        }
      }
      rcfg.retry.max_attempts =
          serve_mtbf > 0.0 || serve_timeout > 0.0 ? 4 : 1;
      rcfg.retry.backoff_ms = 1.0;
      rcfg.retry.timeout_ms = serve_timeout;
      rcfg.retry.hedge_after_ms = hedge_after;
      if (serve_slo > 0.0) {
        rcfg.slo_e2e_p99_ms = serve_slo;
        rcfg.degrade.enabled = true;
      }
      const auto frep = sim::simulate_serving_resilient(trace, rcfg);
      std::printf(
          "\nFleet: %d replica(s), %s routing%s%s\n"
          "  completed %lld / offered %lld (shed %lld, failed %lld)\n"
          "  goodput %.1f tok/s | e2e p99 %.2f ms%s\n"
          "  crashes %lld, retries %lld, timeouts %lld, hedges %lld "
          "(%lld won), wasted %lld tok\n",
          replicas, sim::route_policy_label(rcfg.policy),
          serve_mtbf > 0.0 ? ", crash faults on" : "",
          rcfg.degrade.enabled ? ", SLO degradation on" : "",
          static_cast<long long>(frep.serving.completed),
          static_cast<long long>(frep.offered),
          static_cast<long long>(frep.shed),
          static_cast<long long>(frep.failed), frep.goodput_tok_s(),
          frep.serving.e2e.p99_ms,
          serve_slo > 0.0 ? (frep.slo_met(serve_slo) ? " (SLO met)"
                                                     : " (SLO MISSED)")
                          : "",
          static_cast<long long>(frep.crashes),
          static_cast<long long>(frep.retries),
          static_cast<long long>(frep.timeouts),
          static_cast<long long>(frep.hedges),
          static_cast<long long>(frep.hedge_wins),
          static_cast<long long>(frep.wasted_tokens));
      if (rcfg.degrade.enabled) {
        std::printf(
            "  degradation: %d escalation(s), %d de-escalation(s), final "
            "level %d (%s)\n",
            frep.escalations, frep.deescalations, frep.final_level,
            compress::setting_label(
                parallel::serving_ladder_settings()[static_cast<size_t>(
                    frep.final_level)])
                .c_str());
      }
      obs::json::Value rec = obs::json::Value::object();
      rec.set("fleet_replicas", int64_t{replicas});
      rec.set("fleet_policy", std::string(sim::route_policy_label(rcfg.policy)));
      rec.set("fleet_completed", frep.serving.completed);
      rec.set("fleet_shed", frep.shed);
      rec.set("fleet_failed", frep.failed);
      rec.set("fleet_goodput_tok_s", frep.goodput_tok_s());
      rec.set("fleet_e2e_p99_ms", frep.serving.e2e.p99_ms);
      rec.set("fleet_crashes", frep.crashes);
      rec.set("fleet_escalations", int64_t{frep.escalations});
      report.add_record(std::move(rec));
    }
  }

  if (faults_mode) {
    struct NamedProfile {
      const char* label;
      sim::FaultProfile profile;
    };
    const NamedProfile scenarios[] = {
        {"straggler 1.5x on stage 1", sim::FaultProfile::straggler(1, 1.5, 0)},
        {"flaky link 10% outages",
         sim::FaultProfile::flaky_link(0.10, /*timeout=*/5.0, /*backoff=*/2.0,
                                       0)},
    };
    bench::FaultSweep sweep;  // 25 trials, base seed 1
    for (const auto& sc : scenarios) {
      std::printf("\nFaults: %s (%d seeded trials)\n\n", sc.label,
                  sweep.trials);
      std::vector<std::string> header{"setting", "clean ms", "p50 ms",
                                      "p95 ms",  "p99 ms",   "x clean"};
      std::vector<std::vector<std::string>> body;
      for (compress::Setting s : compress::main_settings()) {
        const auto p = core::CompressionPlan::paper_default(s, model.num_layers);
        const auto summary =
            sweep.run(sc.profile, [&](const sim::FaultProfile& fp) {
              parallel::SimOptions opts(sim::ScheduleKind::k1F1B, 1, false,
                                        false, fp);
              parallel::ModelParallelSimulator sim(cluster, model, {tp, pp, dp},
                                                   {micro, num_micro, seq},
                                                   opts);
              return sim.run(p).total_ms();
            });
        body.push_back({compress::setting_label(s),
                        bench::fmt(summary.clean_ms), bench::fmt(summary.p50_ms),
                        bench::fmt(summary.p95_ms), bench::fmt(summary.p99_ms),
                        bench::fmt(summary.slowdown_p99(), 3)});
      }
      bench::print_table(header, body, 10);
    }
    std::printf(
        "\nReading the tail: a setting whose p99 stays close to its clean\n"
        "time tolerates the fault; a link fault widens the baseline's tail\n"
        "most because it ships the largest messages.\n");
  }

  if (mtbf_ms > 0.0) {
    // Project the job onto the crash-recovery model: the best setting's
    // iteration time is the step cost; a checkpoint write is priced as a few
    // iterations (fp32 params + two Adam moments flushed to shared storage).
    sim::RecoveryConfig rc;
    rc.step_ms = best;
    rc.total_steps = 10000;
    rc.ckpt_cost_ms = 4.0 * best;
    rc.crash.mtbf_ms = mtbf_ms;
    rc.crash.num_stages = pp;
    rc.crash.detect_ms = 2.0 * best;
    rc.crash.restart_ms = 10.0 * best;
    rc.seed = 1;

    const double tau =
        sim::young_daly_interval_ms(rc.ckpt_cost_ms, rc.crash.effective_mtbf_ms());
    const int64_t tau_steps =
        std::max<int64_t>(1, static_cast<int64_t>(std::llround(tau / rc.step_ms)));
    rc.ckpt_interval_steps = ckpt_interval > 0 ? ckpt_interval : tau_steps;
    rc.validate();

    const auto sweep = sim::sweep_checkpoint_interval(rc, /*trials=*/40);
    const auto chosen = sim::simulate_recovery(rc);
    std::printf(
        "\nCrash recovery (per-stage MTBF %.0f ms over %d stages, job MTBF "
        "%.0f ms;\ncheckpoint cost %.1f ms, detect %.1f ms, restart %.1f ms; "
        "%lld-step horizon):\n",
        rc.crash.mtbf_ms, rc.crash.num_stages, rc.crash.effective_mtbf_ms(),
        rc.ckpt_cost_ms, rc.crash.detect_ms, rc.crash.restart_ms,
        static_cast<long long>(rc.total_steps));
    std::printf(
        "  Young/Daly optimal interval: %.1f ms (%lld steps)\n"
        "  simulated optimal interval:  %.1f ms (%lld steps, %+.1f%% vs "
        "analytic)\n"
        "  at --ckpt-interval %lld: goodput %.3f steps/s, %d crashes, "
        "%.1f ms replayed\n",
        tau, static_cast<long long>(tau_steps), sweep.best_interval_ms,
        static_cast<long long>(sweep.best_interval_steps),
        sweep.deviation() * 100.0,
        static_cast<long long>(rc.ckpt_interval_steps),
        chosen.goodput_steps_per_sec(), chosen.crashes, chosen.replay_ms);

    obs::json::Value rec = obs::json::Value::object();
    rec.set("mtbf_ms", rc.crash.mtbf_ms);
    rec.set("ckpt_interval_steps", rc.ckpt_interval_steps);
    rec.set("young_daly_ms", tau);
    rec.set("simulated_best_ms", sweep.best_interval_ms);
    rec.set("goodput_steps_per_s", chosen.goodput_steps_per_sec());
    report.add_record(std::move(rec));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad input (an unknown --topology or --serve-policy, a missing or
  // malformed --trace-in file, a layout whose tp*pp*dp does not match the
  // platform) throws; report it with exit status 2 instead of aborting. The
  // RunReport skips its write while unwinding, so the last good report stays.
  try {
    return explore(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "throughput_explorer: %s\n", e.what());
    return 2;
  }
}
