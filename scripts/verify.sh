#!/usr/bin/env sh
# Convenience verification: tier-1 tests + the fault-recovery and
# tail-forensics gates + the bench-regression diff + a traced
# quickstart run + every frame_forensics mode on a fresh event log +
# a live /metrics scrape (exemplar-aware) + a UBSan pass over the
# telemetry/forensics tests.
#
# Builds (if needed), runs the full ctest suite, runs the quickstart
# with --trace_out and fails if the trace JSON is missing, empty, or
# malformed, then re-runs it with --metrics_port=0 and scrapes the
# embedded HTTP server: /healthz must answer "ok" and /metrics must be
# Prometheus-parseable with the per-service histograms and procstat
# gauges present. Usage:
#
#   scripts/verify.sh [build-dir]     # default: build
#
# Also available as a build target:  cmake --build build --target verify
set -eu

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$(nproc 2>/dev/null || echo 2)"

# Tier-1 gate: the full test suite.
(cd "$BUILD_DIR" && ctest --output-on-failure -j2)

# Fault-recovery gate: the crash experiment must pass all of its own
# gates (scAtteR++ recovers faster and loses less than scAtteR, and a
# same-seed rerun is bit-identical), recorded in its JSON.
(cd "$BUILD_DIR/bench" && ./fault_recovery)
FAULT_JSON="$BUILD_DIR/bench/BENCH_fault_recovery.json"
grep -q '"gates_failed": 0' "$FAULT_JSON" || {
  echo "verify: FAIL — fault-recovery gates violated (see $FAULT_JSON)" >&2; exit 1; }
echo "verify: fault recovery OK"

# Tail-retention gate: the tail_forensics bench enforces its own
# coverage/budget/exemplar gates (>=95% of stale-dropped and
# SLO-breaching frames retained, <=10% of frames kept, every exemplar
# resolving to a retained trace) and records them in its JSON.
(cd "$BUILD_DIR/bench" && ./tail_forensics)
TAIL_JSON="$BUILD_DIR/bench/BENCH_tail_forensics.json"
grep -q '"gates_failed": 0' "$TAIL_JSON" || {
  echo "verify: FAIL — tail-forensics gates violated (see $TAIL_JSON)" >&2; exit 1; }
echo "verify: tail forensics OK"

# Capacity-planning gate: a balanced smoke config on which the
# aggregate-vs-detailed agreement gate arms. The bench's own gates
# require the parallel digest to equal the sequential digest, the
# fluid tail's served/offered ratio to track the detailed probes
# within 5%, and zero conservative-lookahead violations.
(cd "$BUILD_DIR/bench" && ./capacity_planning --population=3 --machines=2 \
    --detailed_clients=2 --session_mean_s=20 --duration_s=20 --roaming=1.0 \
    --sim_threads=2,4)
CAP_JSON="$BUILD_DIR/bench/BENCH_capacity.json"
grep -q '"gates_failed": 0' "$CAP_JSON" || {
  echo "verify: FAIL — capacity-planning gates violated (see $CAP_JSON)" >&2; exit 1; }
grep -q '"digests_equal": true' "$CAP_JSON" || {
  echo "verify: FAIL — parallel capacity digest != sequential" >&2; exit 1; }
grep -q '"agreement_armed": true' "$CAP_JSON" || {
  echo "verify: FAIL — fluid-vs-detailed agreement gate never armed" >&2; exit 1; }
echo "verify: capacity planning OK"

# Lossy-link gate: the live-transport duel over real UDP sockets. Its
# own gates require FEC+rtx to strictly beat fire-and-forget at 5% and
# 10% per-datagram loss, at least one FEC-only recovery, and the
# mar_net_* recovery counters visible on a live /metrics scrape.
(cd "$BUILD_DIR/bench" && ./lossy_link)
LOSSY_JSON="$BUILD_DIR/bench/BENCH_lossy_link.json"
grep -q '"gates_failed": 0' "$LOSSY_JSON" || {
  echo "verify: FAIL — lossy-link gates violated (see $LOSSY_JSON)" >&2; exit 1; }
echo "verify: lossy link OK"

# Profiling-plane gate: the sampling profiler must attribute >= 70% of
# CPU samples to named pipeline stages on the real vision engine, the
# sift allocation story must dwarf the stateless stages, and the
# mar_profile_* counters must show on a live scrape.
(cd "$BUILD_DIR/bench" && ./profile_attribution)
PROFILE_JSON="$BUILD_DIR/bench/BENCH_profile.json"
grep -q '"gates_failed": 0' "$PROFILE_JSON" || {
  echo "verify: FAIL — profile-attribution gates violated (see $PROFILE_JSON)" >&2; exit 1; }
echo "verify: profile attribution OK"

# Control-plane gate: the closed loop (scale-up under breach, drain-
# based scale-down after the ramp-down, same-seed bit-identical rerun,
# deterministic placement search) must strictly beat the static
# deployment on plateau E2E p99 and lose zero frames on the drain path.
(cd "$BUILD_DIR/bench" && ./placement_reopt)
PLACEMENT_JSON="$BUILD_DIR/bench/BENCH_placement.json"
grep -q '"gates_failed": 0' "$PLACEMENT_JSON" || {
  echo "verify: FAIL — placement/reopt gates violated (see $PLACEMENT_JSON)" >&2; exit 1; }
grep -q '"rerun_identical": true' "$PLACEMENT_JSON" || {
  echo "verify: FAIL — closed-loop rerun not bit-identical" >&2; exit 1; }
echo "verify: placement reopt OK"

# Attribution gate: the critical-path decomposition must agree with
# the experiment's own counters (<=2%), state fetch must own the
# scAtteR tail while the scAtteR++ hand-off stays flat, the predictive
# arm must beat the reactive trigger on a ramp and stay silent on a
# flat workload, and the blame gauges must be live-scrapable.
(cd "$BUILD_DIR/bench" && ./blame_attribution)
BLAME_JSON="$BUILD_DIR/bench/BENCH_blame.json"
grep -q '"gates_failed": 0' "$BLAME_JSON" || {
  echo "verify: FAIL — blame-attribution gates violated (see $BLAME_JSON)" >&2; exit 1; }
grep -q '"rerun_identical": true' "$BLAME_JSON" || {
  echo "verify: FAIL — blame/forecast rerun not bit-identical" >&2; exit 1; }
echo "verify: blame attribution OK"

# Docs lint: path references in the curated docs must resolve against
# the working tree (stale pointers after refactors fail verify).
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/docs_lint.py || {
    echo "verify: FAIL — stale path references in docs" >&2; exit 1; }
else
  echo "verify: SKIP docs_lint (no python3)"
fi

# Metrics lint: every registered mar_* series must be documented in
# the README/ARCHITECTURE metric tables, and the docs must not name
# series that no code registers.
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/metrics_lint.py || {
    echo "verify: FAIL — metric reference out of sync with src/" >&2; exit 1; }
else
  echo "verify: SKIP metrics_lint (no python3)"
fi

# Bench-regression gate: fresh headline numbers vs the committed
# baselines in bench/baselines/ (>15% regression in a metric's own
# direction fails; see bench/TRAJECTORY.md for the refresh policy).
# capacity_planning re-runs at its default full-scale config here so
# the diff compares like against like (the smoke run above overwrote
# BENCH_capacity.json with tiny-config numbers).
(cd "$BUILD_DIR/bench" && ./fig2_baseline_edge && ./fig5_utilization && ./capacity_planning)
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_diff.py --fresh "$BUILD_DIR/bench" || {
    echo "verify: FAIL — bench regression vs bench/baselines" >&2; exit 1; }
else
  echo "verify: SKIP bench_diff (no python3)"
fi

# Traced quickstart: outputs land under out/ (gitignored).
OUT_DIR="$BUILD_DIR/out"
TRACE="$OUT_DIR/quickstart_trace.json"
mkdir -p "$OUT_DIR"
"$BUILD_DIR/examples/quickstart" --trace_out="$TRACE" --out_dir="$OUT_DIR"

# The trace must exist, be non-empty, and parse as Chrome trace JSON
# with at least one event. Prefer python3; fall back to grep checks.
[ -s "$TRACE" ] || { echo "verify: FAIL — $TRACE missing or empty" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TRACE" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert len(events) > 0, "trace has no events"
spans = {e.get("name") for e in events if e.get("ph") == "X"}
for required in ("service", "sidecar_queue", "state_fetch"):
    assert required in spans, f"trace is missing {required} spans"
print(f"verify: trace OK ({len(events)} events, span kinds: {sorted(spans)})")
EOF
else
  grep -q '"traceEvents"' "$TRACE" || { echo "verify: FAIL — not a trace JSON" >&2; exit 1; }
  grep -q '"ph":"X"' "$TRACE" || { echo "verify: FAIL — no complete spans" >&2; exit 1; }
  for required in service sidecar_queue state_fetch; do
    grep -q "\"name\":\"$required\"" "$TRACE" || {
      echo "verify: FAIL — trace missing $required spans" >&2; exit 1; }
  done
  echo "verify: trace OK (grep checks)"
fi

# Forensics CLI: a short fixed-seed run writes a raw event log, and
# every frame_forensics mode must read it back, exit 0 and print its
# header line.
EVENTS="$OUT_DIR/forensics_events.log"
"$BUILD_DIR/examples/experiment_cli" --mode scatter --clients 2 --duration 3 --seed 7 \
    --events_out "$EVENTS" >/dev/null
FF="$BUILD_DIR/examples/frame_forensics"
FF_OUT="$OUT_DIR/forensics.txt"
ff_check() {  # ff_check <header regex> <frame_forensics args...>
  pattern="$1"; shift
  "$FF" "$EVENTS" "$@" >"$FF_OUT" || {
    echo "verify: FAIL — frame_forensics $* exited nonzero" >&2; exit 1; }
  head -n 1 "$FF_OUT" | grep -Eq "$pattern" || {
    echo "verify: FAIL — frame_forensics $* printed no header (see $FF_OUT)" >&2; exit 1; }
}
ff_check '^[0-9]+ traced frames$' --list
TRACE_ID="$(sed -n '2s/^trace \([0-9]*\) .*/\1/p' "$FF_OUT")"
[ -n "$TRACE_ID" ] || { echo "verify: FAIL — frame_forensics --list named no frame" >&2; exit 1; }
ff_check '^== trace ' --worst 3
ff_check '^(== trace |no dropped frames)' --dropped
ff_check "^== trace $TRACE_ID " --trace "$TRACE_ID"
ff_check "^critical path trace#$TRACE_ID " --blame "$TRACE_ID"
echo "verify: forensics CLI OK (trace $TRACE_ID)"

# Live metrics plane: background the quickstart on an ephemeral port,
# grab the bound port from its stdout, and scrape it while it serves.
METRICS_LOG="$OUT_DIR/quickstart_metrics.log"
"$BUILD_DIR/examples/quickstart" --metrics_port=0 --serve_ms=15000 \
    --out_dir="$OUT_DIR" >"$METRICS_LOG" 2>&1 &
QS_PID=$!
trap 'kill "$QS_PID" 2>/dev/null || true' EXIT

PORT=""
for _ in $(seq 1 100); do
  PORT="$(sed -n 's/.*metrics plane listening on port \([0-9]*\).*/\1/p' "$METRICS_LOG")"
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "verify: FAIL — quickstart never announced a metrics port" >&2; exit 1; }

# Scrape only after the retention sim has filled the registry (the
# "serving metrics for ..." line comes after it) — exemplars are part
# of the contract below.
READY=""
for _ in $(seq 1 600); do
  if grep -q "serving metrics for" "$METRICS_LOG"; then READY=1; break; fi
  sleep 0.1
done
[ -n "$READY" ] || { echo "verify: FAIL — quickstart never reached its serve phase" >&2; exit 1; }

fetch() {
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://127.0.0.1:$PORT$1"
  else
    python3 -c 'import sys, urllib.request
print(urllib.request.urlopen(f"http://127.0.0.1:{sys.argv[1]}{sys.argv[2]}").read().decode(), end="")' "$PORT" "$1"
  fi
}

HEALTH="$(fetch /healthz)" || { echo "verify: FAIL — /healthz unreachable" >&2; exit 1; }
[ "$HEALTH" = "ok" ] || { echo "verify: FAIL — /healthz said '$HEALTH'" >&2; exit 1; }

SCRAPE="$OUT_DIR/metrics_scrape.txt"
fetch /metrics >"$SCRAPE" || { echo "verify: FAIL — /metrics unreachable" >&2; exit 1; }
[ -s "$SCRAPE" ] || { echo "verify: FAIL — /metrics scrape empty" >&2; exit 1; }

if command -v python3 >/dev/null 2>&1; then
  python3 - "$SCRAPE" <<'EOF'
import sys
names = set()
exemplars = 0
with open(sys.argv[1]) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        # Histogram bucket lines may carry an OpenMetrics exemplar
        # suffix: name_bucket{le="x"} 7 # {trace_id="42"} 3.5
        if " # {" in line:
            line, _, suffix = line.partition(" # {")
            assert suffix.startswith('trace_id="'), f"bad exemplar: {suffix!r}"
            assert "_bucket" in line.split(" ")[0], \
                f"exemplar outside a bucket line: {line!r}"
            exemplars += 1
        # Every sample line must be "<name>[{labels}] <value>".
        head, _, value = line.rpartition(" ")
        assert head, f"unparseable line: {line!r}"
        float(value)
        names.add(head.split("{")[0])
for required in ("mar_service_ms_bucket", "mar_frame_e2e_ms_bucket",
                 "mar_process_rss_bytes", "mar_process_cpu_percent",
                 "mar_blame_ms"):
    assert required in names, f"/metrics is missing {required}"
assert exemplars >= 1, "no histogram exemplars on /metrics (retention run absent?)"
print(f"verify: /metrics OK ({len(names)} series names, {exemplars} exemplars)")
EOF
else
  for required in mar_service_ms_bucket mar_process_rss_bytes; do
    grep -q "^$required" "$SCRAPE" || {
      echo "verify: FAIL — /metrics missing $required" >&2; exit 1; }
  done
  echo "verify: /metrics OK (grep checks)"
fi

# Live blame plane, same serving quickstart: /debug/blame must return
# the banded JSON built from the retention run's traces, and /statusz
# must carry the rendered blame table.
BLAME_OUT="$OUT_DIR/debug_blame.json"
fetch /debug/blame >"$BLAME_OUT" || {
  echo "verify: FAIL — /debug/blame unreachable" >&2; exit 1; }
grep -q '"bands"' "$BLAME_OUT" || {
  echo "verify: FAIL — /debug/blame payload has no bands" >&2; exit 1; }
if grep -q '"frames_delivered": 0' "$BLAME_OUT"; then
  echo "verify: FAIL — /debug/blame saw no delivered frames" >&2; exit 1
fi
fetch /statusz | grep -q "blame report" || {
  echo "verify: FAIL — /statusz missing the blame table" >&2; exit 1; }
echo "verify: blame plane OK"

# Live pprof plane, scraped from the same serving quickstart: a 1 s
# CPU capture must come back as valid folded stacks that include the
# vision pipeline (a demo-load thread keeps the engine busy during the
# serve window), the heap endpoint must attribute the sift pyramid,
# and cmdline must name the binary. Runs after the /metrics checks —
# the capture blocks the single accept thread for its full duration.
PPROF="$OUT_DIR/pprof_profile.folded"
fetch "/debug/pprof/profile?seconds=1" >"$PPROF" || {
  echo "verify: FAIL — /debug/pprof/profile unreachable" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/flamegraph_check.py "$PPROF" --min-samples 5 --require vision || {
    echo "verify: FAIL — /debug/pprof/profile capture invalid (see $PPROF)" >&2; exit 1; }
else
  [ -s "$PPROF" ] || { echo "verify: FAIL — pprof capture empty" >&2; exit 1; }
fi
HEAP="$OUT_DIR/pprof_heap.folded"
fetch "/debug/pprof/heap" >"$HEAP" || {
  echo "verify: FAIL — /debug/pprof/heap unreachable" >&2; exit 1; }
grep -q "sift_pyramid" "$HEAP" || {
  echo "verify: FAIL — heap profile missing sift_pyramid attribution" >&2; exit 1; }
fetch "/debug/pprof/cmdline" | grep -q "quickstart" || {
  echo "verify: FAIL — /debug/pprof/cmdline does not name the binary" >&2; exit 1; }
echo "verify: pprof plane OK"

kill "$QS_PID" 2>/dev/null || true
wait "$QS_PID" 2>/dev/null || true
trap - EXIT

# UBSan pass: the telemetry/forensics layers are full of enum
# round-trips, packed exemplar words, and reinterpreted trace ids —
# build just their tests with -DMAR_SANITIZE=undefined and run the
# `ubsan`-labeled subset.
UBSAN_DIR="${BUILD_DIR}-ubsan"
cmake -B "$UBSAN_DIR" -S . -DMAR_SANITIZE=undefined
cmake --build "$UBSAN_DIR" -j"$(nproc 2>/dev/null || echo 2)" \
  --target flight_recorder_test forensics_test telemetry_conformance_test
(cd "$UBSAN_DIR" && ctest -L ubsan --output-on-failure) || {
  echo "verify: FAIL — ubsan-labeled tests under MAR_SANITIZE=undefined" >&2; exit 1; }
echo "verify: ubsan OK"

# TSan pass: the partitioned DES runs windows concurrently on the
# thread pool, and the profiler's signal handler + start/stop quiesce
# protocol race against attribution from worker threads. Build just
# those tsan-labeled binaries with -DMAR_SANITIZE=thread and run them
# directly (the full tsan label set is `ctest -L tsan` in a complete
# sanitizer build).
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DMAR_SANITIZE=thread
cmake --build "$TSAN_DIR" -j"$(nproc 2>/dev/null || echo 2)" \
  --target sim_partition_test capacity_test telemetry_profiler_test
(cd "$TSAN_DIR/tests" && ./sim_partition_test && ./capacity_test \
   && ./telemetry_profiler_test) || {
  echo "verify: FAIL — partitioned-engine tests under MAR_SANITIZE=thread" >&2; exit 1; }
echo "verify: tsan OK"

echo "verify: PASSED"
