// Simulator workloads: host wall time of fixed simulated jobs.
//
// sim_paper runs a fixed batch of detailed discrete-event experiments
// (expt::Experiment) — the runs every figure is made of. sim_fleet runs
// the partitioned capacity engine (expt::CapacityEngine) at one thread
// and at nproc threads, plus the plan_machines density search.
//
// Both repeat their job until --seconds have passed. Repetition 0 is
// the reference: it is not timed, it records the simulated QoS (the
// frame metrics on these workloads are simulated frames), and every
// later repetition must reproduce its digest bit for bit.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "expt/capacity.h"
#include "expt/experiment.h"
#include "expt/report.h"
#include "report.h"
#include "spans.h"
#include "telemetry/trace.h"
#include "workloads.h"

namespace pb {
namespace {

using mar::core::PipelineMode;
using mar::expt::ExperimentConfig;
using mar::expt::Site;
using mar::expt::SymbolicPlacement;

// The host time of a deterministic job, from its repetitions: the 10th
// percentile. Every repetition does identical work, so a slower one was
// slowed by the host (other tenants contending for the core's caches
// slowed repetitions by up to 1.7x for seconds at a time on the 4-core
// reference host); the fastest decile tracks the job's own cost and
// stays steady across runs where the median does not.
double job_seconds(const std::vector<double>& reps) { return quantile(reps, 0.10); }

// ---- sim_paper -------------------------------------------------------

// scAtteR and scAtteR++ on C2 (all services on E2) and on the
// replicated [1,2,2,1,2] placement, each with more clients than the
// knee for that placement (C2: 2 clients for scAtteR++, 1 for scAtteR;
// replicated: about 4), 30 fps per client.
std::vector<ExperimentConfig> paper_batch(std::uint64_t seed) {
  struct Cell {
    PipelineMode mode;
    bool replicated;
    int clients;
  };
  const Cell cells[] = {
      {PipelineMode::kScatter, false, 4},
      {PipelineMode::kScatterPP, false, 4},
      {PipelineMode::kScatter, true, 6},
      {PipelineMode::kScatterPP, true, 6},
  };
  std::vector<ExperimentConfig> batch;
  std::uint64_t i = 0;
  for (const Cell& c : cells) {
    ExperimentConfig cfg;
    cfg.mode = c.mode;
    cfg.placement = c.replicated ? SymbolicPlacement::replicated({1, 2, 2, 1, 2})
                                 : SymbolicPlacement::single(Site::kE2);
    cfg.num_clients = c.clients;
    cfg.warmup = mar::seconds(5.0);
    cfg.duration = mar::seconds(60.0);
    cfg.seed = seed * 16 + ++i;
    batch.push_back(std::move(cfg));
  }
  return batch;
}

struct PaperRep {
  double run_s = 0.0;    // run() + result(), whole batch
  std::uint64_t digest = kFnvBasis;
  std::uint64_t events_fired = 0;
  std::uint64_t events_cancelled = 0;
  std::vector<double> e2e_ms;  // delivered simulated frames (reference rep only)
  double success_sum = 0.0;
};

// One pass over the batch. `collect` attaches the per-frame hook.
PaperRep run_paper_batch(const std::vector<ExperimentConfig>& batch, std::uint64_t rep_id,
                         bool collect) {
  PaperRep rep;
  std::vector<std::unique_ptr<mar::expt::Experiment>> exps;
  for (ExperimentConfig cfg : batch) {
    if (collect) {
      cfg.on_frame_hook = [&rep](mar::SimTime, double e2e_ms, bool) {
        rep.e2e_ms.push_back(e2e_ms);
      };
    }
    spans::Scope s("expt.build", rep_id);
    exps.push_back(std::make_unique<mar::expt::Experiment>(std::move(cfg)));
    exps.back()->build();
  }
  const Clock::time_point r0 = Clock::now();
  std::vector<mar::expt::ExperimentResult> results;
  for (auto& e : exps) {
    {
      spans::Scope s("expt.run", rep_id);
      e->run();
    }
    spans::Scope s("expt.result", rep_id);
    results.push_back(e->result());
  }
  rep.run_s = seconds_since(r0);
  for (std::size_t i = 0; i < exps.size(); ++i) {
    const std::string json = mar::expt::to_json(results[i]);
    rep.digest = fnv1a(json.data(), json.size(), rep.digest);
    const auto& stats = exps[i]->testbed().loop().stats();
    rep.events_fired += stats.fired;
    rep.events_cancelled += stats.cancelled;
    rep.success_sum += results[i].success_rate;
  }
  return rep;
}

// ---- sim_fleet -------------------------------------------------------

// scAtteR++ on many E2 boxes: per box one detailed probe plus a fluid
// tail of about one session, below the density at which the detailed
// probes fall under 0.9 success, so the engine is timed on a system
// that has not collapsed.
mar::expt::CapacityConfig fleet_config(std::uint64_t seed) {
  mar::expt::CapacityConfig cfg;
  cfg.mode = PipelineMode::kScatterPP;
  cfg.machines = 32;
  cfg.detailed_clients = 32;
  cfg.population.mean_population = 32.0;
  cfg.population.session_mean_s = 60.0;
  cfg.warmup = mar::seconds(2.0);
  cfg.duration = mar::seconds(120.0);
  cfg.seed = seed;
  return cfg;
}

struct FleetRep {
  double plan_s = 0.0;
  double run1_s = 0.0;  // engine at 1 thread
  double runn_s = 0.0;  // engine at nproc threads
  mar::expt::CapacityResult r1, rn;
  mar::expt::CapacityPlan plan;
};

FleetRep run_fleet_job(const mar::expt::CapacityConfig& cfg, int threads, std::uint64_t rep_id) {
  FleetRep rep;
  {
    const Clock::time_point t0 = Clock::now();
    spans::Scope s("expt.plan_machines", rep_id);
    rep.plan = mar::expt::CapacityEngine::plan_machines(cfg);
    rep.plan_s = seconds_since(t0);
  }
  auto seq = std::make_unique<mar::expt::CapacityEngine>(cfg);
  auto par = std::make_unique<mar::expt::CapacityEngine>(cfg);
  {
    const Clock::time_point t0 = Clock::now();
    spans::Scope s("sim.capacity_run_1", rep_id);
    rep.r1 = seq->run(1);
    rep.run1_s = seconds_since(t0);
  }
  {
    const Clock::time_point t0 = Clock::now();
    spans::Scope s("sim.capacity_run_n", rep_id);
    rep.rn = par->run(threads);
    rep.runn_s = seconds_since(t0);
  }
  return rep;
}

}  // namespace

// Set-up is cheap on the simulator workloads, so it is repeated this
// many times per run and reported as the median.
constexpr int kSetupReps = 25;

Outcome run_sim_paper(const Args& args) {
  Outcome out;
  const auto batch = paper_batch(args.seed);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::unique_ptr<mar::expt::Experiment>> exps;
    for (const ExperimentConfig& cfg : batch) {
      exps.push_back(std::make_unique<mar::expt::Experiment>(cfg));
      exps.back()->build();
    }
    setup_s.push_back(seconds_since(t0));
  }
  const PaperRep ref = run_paper_batch(batch, 0, /*collect=*/true);
  std::printf("sim_paper: %zu experiments per job, digest %016llx, %llu events, %zu "
              "delivered simulated frames\n",
              batch.size(), static_cast<unsigned long long>(ref.digest),
              static_cast<unsigned long long>(ref.events_fired), ref.e2e_ms.size());

  // Repeat the job; returns the reps. Every rep is checked against ref.
  std::uint64_t rep_id = 1;
  auto repeat = [&](double seconds) {
    std::vector<PaperRep> reps;
    const Clock::time_point t0 = Clock::now();
    while (reps.size() < 3 || seconds_since(t0) < seconds) {
      reps.push_back(run_paper_batch(batch, rep_id++, false));
      const bool same = reps.back().digest == ref.digest;
      out.count(static_cast<std::int64_t>(batch.size()), same ? 0 :
                static_cast<std::int64_t>(batch.size()));
      if (!same) std::printf("sim_paper: rep %llu digest differs from the reference\n",
                             static_cast<unsigned long long>(rep_id - 1));
    }
    return reps;
  };
  auto e2e_metrics = [&](Outcome& o, const std::vector<PaperRep>& reps) {
    std::vector<double> run;
    for (const PaperRep& r : reps) run.push_back(r.run_s);
    const double run_s = job_seconds(run);
    o.add("setup_s", median(setup_s), "s");
    o.add("peak_rss_mb", peak_rss_mb(), "MB");
    o.add("frame_e2e_p50_ms", quantile(ref.e2e_ms, 0.50), "ms");
    o.add("frame_e2e_tail_ms", quantile(ref.e2e_ms, 0.99), "ms");
    o.add("frame_success_ratio", ref.success_sum / static_cast<double>(batch.size()), "ratio");
    o.add("saturation_fps", static_cast<double>(ref.e2e_ms.size()) / run_s, "frames/s");
    o.add("run_s", run_s, "s");
  };

  if (!args.trace) {
    const auto reps = repeat(args.seconds);
    std::printf("sim_paper: %zu timed jobs\n", reps.size());
    e2e_metrics(out, reps);
    return out;
  }

  // Traced run: untraced half, traced half, then the program's own
  // telemetry::Tracer on for a few jobs.
  const auto base = repeat(args.seconds * 0.4);
  spans::reset();
  spans::set_enabled(true);
  const Clock::time_point traced0 = Clock::now();
  const auto traced = repeat(args.seconds * 0.4);
  const double traced_ms = ms_between(traced0, Clock::now());
  spans::set_enabled(false);
  const auto sp = spans::collect();

  auto& tracer = mar::telemetry::Tracer::instance();
  std::vector<double> tracer_on;
  const Clock::time_point on0 = Clock::now();
  while (tracer_on.size() < 3 || seconds_since(on0) < args.seconds * 0.2) {
    tracer.clear();
    tracer.set_enabled(true);
    const PaperRep r = run_paper_batch(batch, 0, false);
    tracer.set_enabled(false);
    tracer_on.push_back(r.run_s);
    const bool same = r.digest == ref.digest;
    out.count(static_cast<std::int64_t>(batch.size()), same ? 0 :
              static_cast<std::int64_t>(batch.size()));
    if (!same) std::printf("sim_paper: tracing changed the digest\n");
  }
  tracer.clear();

  Outcome e_base, e_traced;
  e2e_metrics(e_base, base);
  e2e_metrics(e_traced, traced);
  std::vector<double> build, run, result;
  for (std::uint64_t id = traced.empty() ? 0 : rep_id - traced.size(); id < rep_id; ++id) {
    double b = 0, r = 0, x = 0;
    for (const spans::Span& s : sp) {
      if (s.id != id) continue;
      const double sec = static_cast<double>(s.end_ns - s.start_ns) / 1e9;
      const std::string_view n(s.name);
      if (n == "expt.build") b += sec;
      if (n == "expt.run") r += sec;
      if (n == "expt.result") x += sec;
    }
    build.push_back(b);
    run.push_back(r);
    result.push_back(x);
  }
  out.add("expt.build_s", median(build), "s");
  out.add("expt.run_s", median(run), "s");
  out.add("expt.result_s", median(result), "s");
  out.add("sim.events_fired", static_cast<double>(ref.events_fired), "count");
  out.add("sim.events_cancelled", static_cast<double>(ref.events_cancelled), "count");
  out.add("sim.events_per_s", static_cast<double>(ref.events_fired) / median(run), "1/s");
  out.add("telemetry.trace_wall_ratio", job_seconds(tracer_on) / e_base.get("run_s"), "ratio");
  add_trace_overhead(out, e_base, e_traced);
  spans::print_self_time_table(sp, traced_ms, stdout);
  write_trace(args, sp);
  return out;
}

Outcome run_sim_fleet(const Args& args) {
  Outcome out;
  const int threads = nproc();
  const auto cfg = fleet_config(args.seed);
  // Set-up: the nproc-lane pool the partitioned engine fans out on, and
  // the engine itself.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    const Clock::time_point t0 = Clock::now();
    mar::set_parallel_threads(threads);
    const mar::expt::CapacityEngine engine(cfg);
    setup_s.push_back(seconds_since(t0));
  }
  const FleetRep ref = run_fleet_job(cfg, threads, 0);
  std::printf("sim_fleet: %d machines, %d probes, %.0f fluid sessions, %.0f s simulated, "
              "%d threads; probes %.3f success, %.1f fps; plan %d clients/box; digest "
              "%016llx, %llu events\n",
              cfg.machines, cfg.detailed_clients, cfg.population.mean_population,
              mar::to_seconds(cfg.duration), threads, ref.rn.detailed_success_rate,
              ref.rn.detailed_fps_mean, ref.plan.clients_per_box,
              static_cast<unsigned long long>(ref.rn.digest),
              static_cast<unsigned long long>(ref.rn.events_fired));

  std::uint64_t rep_id = 1;
  auto check = [&](const FleetRep& r) {
    const bool ok = r.r1.digest == ref.r1.digest && r.rn.digest == r.r1.digest &&
                    r.r1.lookahead_violations == 0 && r.rn.lookahead_violations == 0 &&
                    r.plan.clients_per_box == ref.plan.clients_per_box;
    if (!ok) std::printf("sim_fleet: rep digest/plan mismatch or lookahead violation\n");
    return ok;
  };
  if (!check(ref)) out.count(1, 1);
  auto repeat = [&](double seconds) {
    std::vector<FleetRep> reps;
    const Clock::time_point t0 = Clock::now();
    while (reps.size() < 3 || seconds_since(t0) < seconds) {
      reps.push_back(run_fleet_job(cfg, threads, rep_id++));
      out.count(1, check(reps.back()) ? 0 : 1);
    }
    return reps;
  };
  const double probe_frames = ref.rn.detailed_fps_mean * ref.rn.detailed_clients *
                              ref.rn.duration_s;
  auto e2e_metrics = [&](Outcome& o, const std::vector<FleetRep>& reps) {
    std::vector<double> job, runn;
    for (const FleetRep& r : reps) {
      job.push_back(r.plan_s + r.runn_s);
      runn.push_back(r.runn_s);
    }
    const double run_s = job_seconds(job);
    o.add("setup_s", median(setup_s), "s");
    o.add("peak_rss_mb", peak_rss_mb(), "MB");
    // The engine reports the probes' mean E2E, not a median.
    o.add("frame_e2e_p50_ms", ref.rn.detailed_e2e_ms_mean, "ms");
    o.add("frame_e2e_tail_ms", ref.rn.detailed_e2e_p99_ms, "ms");
    o.add("frame_success_ratio", ref.rn.detailed_success_rate, "ratio");
    o.add("saturation_fps", probe_frames / job_seconds(runn), "frames/s");
    o.add("run_s", run_s, "s");
  };

  if (!args.trace) {
    const auto reps = repeat(args.seconds);
    std::printf("sim_fleet: %zu timed jobs\n", reps.size());
    e2e_metrics(out, reps);
    return out;
  }

  const auto base = repeat(args.seconds / 2);
  spans::reset();
  spans::set_enabled(true);
  const Clock::time_point traced0 = Clock::now();
  const auto traced = repeat(args.seconds / 2);
  const double traced_ms = ms_between(traced0, Clock::now());
  spans::set_enabled(false);
  const auto sp = spans::collect();

  Outcome e_base, e_traced;
  e2e_metrics(e_base, base);
  e2e_metrics(e_traced, traced);
  std::vector<double> run1, runn, plan;
  for (const FleetRep& r : traced) {
    run1.push_back(r.run1_s);
    runn.push_back(r.runn_s);
    plan.push_back(r.plan_s);
  }
  const auto& rn = ref.rn;
  out.add("sim.events_fired", static_cast<double>(rn.events_fired), "count");
  out.add("sim.events_per_s", static_cast<double>(rn.events_fired) / median(runn), "1/s");
  out.add("sim.partition_windows", static_cast<double>(rn.windows_run), "count");
  out.add("sim.messages_posted", static_cast<double>(rn.messages_posted), "count");
  out.add("sim.lookahead_violations", static_cast<double>(rn.lookahead_violations), "count");
  out.add("sim.partition_speedup", median(run1) / median(runn), "ratio");
  out.add("sim.fleet_probe_success", rn.detailed_success_rate, "ratio");
  out.add("expt.plan_machines_s", median(plan), "s");
  add_trace_overhead(out, e_base, e_traced);
  spans::print_self_time_table(sp, traced_ms, stdout);
  write_trace(args, sp);
  return out;
}

}  // namespace pb
