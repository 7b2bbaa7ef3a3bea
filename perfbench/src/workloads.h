// The benchmark's four workloads. Each runs for Args::seconds and
// fills an Outcome: end-to-end metrics in an untraced run, per-layer
// metrics (plus the tracing overhead) in a traced one. See
// perfbench/README.md for why each workload exists and which layer
// metric should move which end-to-end metric.
#pragma once

#include <vector>

#include "report.h"
#include "spans.h"

namespace pb {

// Real vision kernels in five stages on one EpollLoop, clean loopback.
Outcome run_ar_live(const Args& args);
// The same five-hop topology forwarding opaque 180/480 KB payloads over
// a 5 %-loss link with retransmission and FEC.
Outcome run_relay_lossy(const Args& args);
// A fixed batch of detailed simulator runs (expt::Experiment).
Outcome run_sim_paper(const Args& args);
// The partitioned capacity engine plus plan_machines.
Outcome run_sim_fleet(const Args& args);

// Tracing overhead: the traced half's end-to-end metrics minus the
// untraced half's, for the metrics a traced run perturbs.
void add_trace_overhead(Outcome& out, const Outcome& untraced, const Outcome& traced);

// Write the traced run's spans under Args::trace_dir.
void write_trace(const Args& args, const std::vector<spans::Span>& sp);

// Logical CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int nproc();

}  // namespace pb
