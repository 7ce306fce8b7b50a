#!/usr/bin/env bash
# Offline CI gate for the OPTIMUS reproduction.
#
#  1. Hermetic-build check: no Cargo.toml may declare a registry dependency
#     (everything must be an in-tree path dependency).
#  2. Tier-1: cargo build --release && cargo test -q (plus the full
#     workspace test suite), then the same fabric/hypervisor suites with
#     fast-forward off (2b) and the perfbench self-tests (2c: golden
#     digests of every workload, so a speed-up that changes what is
#     simulated fails here).
#  3. Bench smoke: run every bench target once at tiny scales and check
#     that each emits its BENCH_<target>.json report.
#  4. Trace smoke: run one fig5 sweep point with OPTIMUS_TRACE=1, validate
#     the exported Chrome-trace JSON offline, then re-run with tracing off
#     and assert the bench fingerprint is byte-identical.
#  5. Node smoke: run the cluster_scale bench with parallel device
#     stepping (OPTIMUS_NODE_THREADS=4) and again serially
#     (OPTIMUS_NODE_THREADS=1) and assert the bench fingerprints are
#     byte-identical — the multi-FPGA node layer must not let the thread
#     schedule leak into any measured figure.
#  6. Metrics smoke: run one fig5 sweep point with the metrics plane on
#     (the default) and with OPTIMUS_METRICS=off, assert the bench
#     fingerprints (minus the metrics section itself) are byte-identical,
#     validate the Prometheus exposition offline (parseable, no duplicate
#     series, counters monotone across two window lengths), and fail if
#     metrics-on regresses sim_rate by more than 5 %.
#  7. Migration smoke: (a) run one fig5 sweep point with
#     OPTIMUS_LIVE_UPDATE=1 — the hypervisor is frozen into a versioned
#     HvSnapshot at the warm-up boundary, round-tripped through its wire
#     encoding, and a brand-new hypervisor is thawed over the running
#     device — and assert the bench fingerprint is byte-identical to an
#     uninterrupted run; (b) run the migrate_rebalance bench (watchdog-
#     driven live migration between devices) serially and with parallel
#     device stepping and assert those fingerprints are byte-identical.
#  8. Sim-rate regression gate: re-run the three tracked benches twice
#     each at the stage-3 CI scale, take each bench's best-of-two
#     sim_rate, and compare against the committed baselines in
#     benchmarks/BENCH_*.json — fail on >20% regression, print the
#     speedup on improvement.
#  9. Isolation gate: run one fig5 sweep point with the executable
#     isolation spec checking every host-memory access (OPTIMUS_SPEC=1)
#     and assert the bench fingerprint is byte-identical to a spec-off
#     run; then the WildDma containment smoke (every out-of-window probe
#     discarded, zero refinement violations) and the noninterference
#     differential (victim data observables bit-identical ± adversary,
#     across thread counts, schedules, and mid-run migrate/live-update).
# 10. Shared-channel gate: the producer/consumer pipeline bench must
#     measure identically across thread schedules and with the spec plane
#     auditing every handle entitlement; zero-copy must beat CPU staging;
#     plus the cross-tenant channel noninterference and share-migration
#     property suites.
# 11. Journal gate: run one fig5 sweep point with the job-lifecycle
#     journal on (the default) and with OPTIMUS_JOURNAL=0, assert the
#     bench fingerprints (minus the journal-derived slo/metrics sections)
#     are byte-identical, validate the standalone SLO_<name>.json report
#     offline against its schema, and fail if journal-on regresses
#     best-of-two sim_rate by more than 5 %.
#
# The whole script runs with no network access.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== [1/11] registry-dependency check =="
python3 - <<'PYEOF'
import glob, re, sys

DEP_SECTIONS = re.compile(
    r"^\[(?:workspace\.)?(?:dependencies|dev-dependencies|build-dependencies)"
    r"(?:\.[A-Za-z0-9_-]+)?\]$"
)
offenders = []
for path in sorted(glob.glob("Cargo.toml") + glob.glob("crates/*/Cargo.toml")):
    in_deps = False
    for lineno, raw in enumerate(open(path), 1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("["):
            in_deps = bool(DEP_SECTIONS.match(line.strip()))
            continue
        if not in_deps:
            continue
        # A path dep looks like `name = { path = "..." }` or
        # `name.workspace = true`. Anything versioned, git-sourced, or
        # registry-sourced is a hermeticity violation.
        if re.match(r'^\s*[A-Za-z0-9_-]+\s*=\s*"', line):
            offenders.append((path, lineno, line.strip()))
        elif re.search(r'\b(version|git|registry)\s*=', line):
            offenders.append((path, lineno, line.strip()))
        elif "path" not in line and "workspace" not in line:
            offenders.append((path, lineno, line.strip()))

if offenders:
    print("FAIL: registry-style dependencies found (the workspace must stay hermetic):")
    for path, lineno, line in offenders:
        print(f"  {path}:{lineno}: {line}")
    sys.exit(1)
print("ok: all dependencies are in-tree path dependencies")
PYEOF

echo "== [2/11] tier-1: build + tests =="
cargo build --release
cargo test -q
cargo test --workspace -q

echo "== [2b/11] fast-forward differential equivalence (per-cycle mode) =="
# Re-run the fabric and hypervisor suites with fast-forwarding disabled:
# the differential property tests then compare per-cycle stepping against
# an explicitly re-enabled fast path, and every other test exercises the
# seed's original cycle loop.
OPTIMUS_NO_FASTFWD=1 cargo test -q -p optimus-fabric -p optimus

echo "== [2c/11] perfbench self-tests (golden digests: the simulation is unchanged) =="
# perfbench is its own workspace (it builds the simulator crates from
# source); its self-tests run every workload at seeds with recorded golden
# digests, and a digest mismatch is a failed operation.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== [3/11] bench smoke (tiny scales, one JSON report per target) =="
BENCH_DIR="target/bench-reports-ci"
rm -rf "$BENCH_DIR"
export OPTIMUS_BENCH_DIR="$PWD/$BENCH_DIR"
# Shrink every knob so the full sweep finishes in seconds.
export OPTIMUS_BENCH_WARMUP=20000
export OPTIMUS_BENCH_WINDOW=60000
export OPTIMUS_FIG1_SCALE=400
export OPTIMUS_FIG8_SLICE_US=500
export OPTIMUS_FIG8_SLICES=1
export OPTIMUS_TESTKIT_WARMUP=1
export OPTIMUS_TESTKIT_SAMPLES=3
export OPTIMUS_TESTKIT_ITERS=5

BENCHES=$(ls crates/bench/benches/*.rs | xargs -n1 basename | sed 's/\.rs$//')
for b in $BENCHES; do
    echo "-- bench smoke: $b"
    cargo bench -q -p optimus-bench --bench "$b" >/dev/null
    if [ ! -s "$BENCH_DIR/BENCH_${b}.json" ]; then
        echo "FAIL: bench '$b' did not emit $BENCH_DIR/BENCH_${b}.json"
        exit 1
    fi
done
echo "ok: $(ls "$BENCH_DIR" | wc -l) bench reports in $BENCH_DIR"

echo "== [4/11] trace smoke (flight recorder on one fig5 point) =="
TRACE_DIR="target/trace-smoke-ci"
rm -rf "$TRACE_DIR" "$TRACE_DIR-off"
# Traced run: one fig5 sweep point with the flight recorder on.
OPTIMUS_BENCH_DIR="$PWD/$TRACE_DIR" OPTIMUS_FIG5_QUICK=1 OPTIMUS_TRACE=1 \
    cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
# Untraced run of the identical point, for the fingerprint comparison.
OPTIMUS_BENCH_DIR="$PWD/$TRACE_DIR-off" OPTIMUS_FIG5_QUICK=1 \
    cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
python3 - "$TRACE_DIR" "$TRACE_DIR-off" <<'PYEOF'
import json, sys
sys.path.insert(0, "scripts")
from fingerprint import BASE_VOLATILE, fingerprint

traced_dir, plain_dir = sys.argv[1], sys.argv[2]

# --- 1. The exported Chrome trace is well-formed and complete. ---
doc = json.load(open(f"{traced_dir}/TRACE_fig5_latency.json"))
events = doc["traceEvents"]
if not isinstance(events, list) or not events:
    sys.exit("FAIL: traceEvents missing or empty")

names = {e.get("name") for e in events}
required = ["mmio_trap", "iotlb_miss", "page_walk", "mux_grant"]
missing = [n for n in required if n not in names]
if not any(isinstance(n, str) and n.startswith("preempt.") for n in names):
    missing.append("preempt.*")
if missing:
    sys.exit(f"FAIL: trace lacks required event classes: {missing}")

# Perfetto-loadability basics: metadata tracks + required fields per event.
if not any(e.get("ph") == "M" and e.get("name") == "thread_name" for e in events):
    sys.exit("FAIL: no thread_name metadata tracks")
last = -1
for e in events:
    if e.get("ph") == "M":
        continue
    for field in ("ph", "pid", "tid", "ts", "name", "args"):
        if field not in e:
            sys.exit(f"FAIL: event missing {field}: {e}")
    cycle = e["args"]["cycle"]
    if cycle < last:
        sys.exit(f"FAIL: cycle stamps not monotone: {cycle} after {last}")
    last = cycle
print(f"ok: trace JSON valid ({len(events)} events, {len(names)} distinct names)")

# --- 2. The bench JSON carries the plain-text counter dump. ---
traced = json.load(open(f"{traced_dir}/BENCH_fig5_latency.json"))
counters = traced.get("trace_counters", [])
if not counters or not all(" = " in line for line in counters):
    sys.exit("FAIL: BENCH json lacks the trace counter dump")
print(f"ok: {len(counters)} trace counters appended to BENCH json")

# --- 3. Tracing never changes the measurement: the bench fingerprint
# (everything except wall-clock-dependent and trace-only fields) is
# byte-identical between the traced and untraced runs. ---
plain = json.load(open(f"{plain_dir}/BENCH_fig5_latency.json"))
if fingerprint(traced, BASE_VOLATILE) != fingerprint(plain, BASE_VOLATILE):
    sys.exit("FAIL: tracing changed the bench fingerprint")
print("ok: bench fingerprint byte-identical with tracing on and off")
PYEOF

echo "== [5/11] node smoke (parallel vs serial device stepping) =="
NODE_DIR="target/node-smoke-ci"
rm -rf "$NODE_DIR-par" "$NODE_DIR-ser"
# Parallel run: pin the worker count so the check is meaningful even on a
# single-core host (available_parallelism would otherwise report 1).
OPTIMUS_BENCH_DIR="$PWD/$NODE_DIR-par" OPTIMUS_NODE_THREADS=4 \
    cargo bench -q -p optimus-bench --bench cluster_scale >/dev/null
# Serial escape hatch: same sweep, one device at a time.
OPTIMUS_BENCH_DIR="$PWD/$NODE_DIR-ser" OPTIMUS_NODE_THREADS=1 \
    cargo bench -q -p optimus-bench --bench cluster_scale >/dev/null
python3 - "$NODE_DIR-par" "$NODE_DIR-ser" <<'PYEOF'
import sys
sys.path.insert(0, "scripts")
from fingerprint import BASE_VOLATILE, fingerprint

par_dir, ser_dir = sys.argv[1], sys.argv[2]
if fingerprint(f"{par_dir}/BENCH_cluster_scale.json", BASE_VOLATILE) != \
   fingerprint(f"{ser_dir}/BENCH_cluster_scale.json", BASE_VOLATILE):
    sys.exit("FAIL: parallel device stepping changed the bench fingerprint")
print("ok: cluster_scale fingerprint byte-identical, parallel vs serial")
PYEOF

echo "== [6/11] metrics smoke (always-on metrics plane on one fig5 point) =="
MET_DIR="target/metrics-smoke-ci"
rm -rf "$MET_DIR-short" "$MET_DIR-on" "$MET_DIR-on2" "$MET_DIR-off" "$MET_DIR-off2"
# Short run: the stage-3 window, used as the earlier snapshot for the
# counter-monotonicity check.
OPTIMUS_BENCH_DIR="$PWD/$MET_DIR-short" OPTIMUS_FIG5_QUICK=1 \
    cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
# Long runs, metrics on (default) and off, twice each: the fingerprint
# comparison uses the first pair; the sim_rate bound takes each mode's
# best of two so one scheduler hiccup can't fail the gate.
for d in on on2; do
    OPTIMUS_BENCH_DIR="$PWD/$MET_DIR-$d" OPTIMUS_FIG5_QUICK=1 OPTIMUS_BENCH_WINDOW=180000 \
        cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
done
for d in off off2; do
    OPTIMUS_BENCH_DIR="$PWD/$MET_DIR-$d" OPTIMUS_FIG5_QUICK=1 OPTIMUS_BENCH_WINDOW=180000 \
        OPTIMUS_METRICS=off \
        cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
done
python3 - "$MET_DIR-short" "$MET_DIR-on" "$MET_DIR-on2" "$MET_DIR-off" "$MET_DIR-off2" <<'PYEOF'
import json, re, sys
sys.path.insert(0, "scripts")
from fingerprint import BASE_VOLATILE, fingerprint

short_dir, on_dir, on2_dir, off_dir, off2_dir = sys.argv[1:6]
load = lambda d: json.load(open(f"{d}/BENCH_fig5_latency.json"))
short, on, on2, off, off2 = map(load, (short_dir, on_dir, on2_dir, off_dir, off2_dir))

# --- 1. The metrics section exists when on and is absent when off. ---
if "metrics" not in on or not on["metrics"]:
    sys.exit("FAIL: metrics-on BENCH json lacks a metrics section")
if "metrics" in off:
    sys.exit("FAIL: OPTIMUS_METRICS=off still emitted a metrics section")

# --- 2. Metrics never change the measurement: fingerprints (minus the
# metrics section itself) byte-identical on vs off; and the metrics
# section itself is run-to-run deterministic. ---
VOLATILE = BASE_VOLATILE + ("metrics",)
if fingerprint(on, VOLATILE) != fingerprint(off, VOLATILE):
    sys.exit("FAIL: the metrics plane changed the bench fingerprint")
if json.dumps(on["metrics"], sort_keys=True) != json.dumps(on2["metrics"], sort_keys=True):
    sys.exit("FAIL: metrics section differs between identical runs")
print("ok: bench fingerprint byte-identical with metrics on and off")

# --- 3. Offline Prometheus validation: parseable, every sample's metric
# declared by HELP/TYPE, no duplicate series. ---
SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|NaN|[+-]Inf)$"
)
declared, seen = set(), set()
path = f"{on_dir}/PROM_fig5_latency.prom"
for lineno, raw in enumerate(open(path), 1):
    line = raw.rstrip("\n")
    if not line:
        continue
    if line.startswith("# TYPE "):
        parts = line.split()
        if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
            sys.exit(f"FAIL: {path}:{lineno}: malformed TYPE line: {line}")
        declared.add(parts[2])
        continue
    if line.startswith("#"):
        continue
    m = SAMPLE.match(line)
    if not m:
        sys.exit(f"FAIL: {path}:{lineno}: unparseable sample: {line}")
    name, labels, _ = m.groups()
    base = re.sub(r"_(bucket|count|sum|min|max)$", "", name)
    if name not in declared and base not in declared:
        sys.exit(f"FAIL: {path}:{lineno}: sample without TYPE declaration: {name}")
    series = (name, labels or "")
    if series in seen:
        sys.exit(f"FAIL: {path}:{lineno}: duplicate series: {name}{labels or ''}")
    seen.add(series)
if not seen:
    sys.exit(f"FAIL: {path} contains no samples")
print(f"ok: Prometheus exposition valid ({len(seen)} series, {len(declared)} metrics)")

# --- 4. Counters are monotone in simulated time: every counter series
# present after the short window exists after the long window with a
# value at least as large. ---
VALUE_FIELDS = ("value", "count", "sum", "min", "max", "buckets")
def counters(report):
    out = {}
    for s in report["metrics"]:
        # Counters carry "value"; the only gauge (fairness_jain) may
        # legitimately move either way, and histograms are checked via
        # their monotone "count" instead.
        if s["name"] == "fairness_jain":
            continue
        key = tuple(sorted((k, v) for k, v in s.items() if k not in VALUE_FIELDS))
        if "value" in s:
            out[key] = s["value"]
        elif "count" in s:
            out[key + (("__hist__", 1),)] = s["count"]
    return out
early, late = counters(short), counters(on)
regressed = [k for k, v in early.items() if late.get(k, 0) < v]
if regressed:
    sys.exit(f"FAIL: counters regressed between window lengths: {regressed[:5]}")
print(f"ok: {len(early)} counter series monotone across window lengths")

# --- 5. The always-on accumulate path is cheap: best-of-two sim_rate
# with metrics on must stay within 5% of metrics off. ---
rate_on = max(on["sim_rate"], on2["sim_rate"])
rate_off = max(off["sim_rate"], off2["sim_rate"])
ratio = rate_on / rate_off
if ratio < 0.95:
    sys.exit(f"FAIL: metrics-on sim_rate {rate_on:.0f} is {ratio:.1%} of "
             f"metrics-off {rate_off:.0f} (bound: 95%)")
print(f"ok: metrics overhead within bound (on/off sim_rate ratio {ratio:.1%})")
PYEOF

echo "== [7/11] migration smoke (live-update + cross-device rebalance) =="
MIG_DIR="target/migrate-smoke-ci"
rm -rf "$MIG_DIR-lu" "$MIG_DIR-plain" "$MIG_DIR-reb-ser" "$MIG_DIR-reb-par"
# Live-update run: freeze -> wire bytes -> thaw a fresh hypervisor over
# the same device at the warm-up/window boundary, mid-run.
OPTIMUS_BENCH_DIR="$PWD/$MIG_DIR-lu" OPTIMUS_FIG5_QUICK=1 OPTIMUS_LIVE_UPDATE=1 \
    cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
# Uninterrupted run of the identical point.
OPTIMUS_BENCH_DIR="$PWD/$MIG_DIR-plain" OPTIMUS_FIG5_QUICK=1 \
    cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
# Rebalancing bench: serial vs parallel device stepping.
OPTIMUS_BENCH_DIR="$PWD/$MIG_DIR-reb-ser" OPTIMUS_NODE_THREADS=1 \
    cargo bench -q -p optimus-bench --bench migrate_rebalance >/dev/null
OPTIMUS_BENCH_DIR="$PWD/$MIG_DIR-reb-par" OPTIMUS_NODE_THREADS=4 \
    cargo bench -q -p optimus-bench --bench migrate_rebalance >/dev/null
python3 - "$MIG_DIR-lu" "$MIG_DIR-plain" "$MIG_DIR-reb-ser" "$MIG_DIR-reb-par" <<'PYEOF'
import json, sys
sys.path.insert(0, "scripts")
from fingerprint import BASE_VOLATILE, fingerprint

lu_dir, plain_dir, ser_dir, par_dir = sys.argv[1:5]

# --- 1. Live-updating the hypervisor mid-run must be invisible to every
# measured figure: snapshot -> wire encoding -> fresh instance, then the
# measurement window opens. Bit-identical or the snapshot lost state. ---
if fingerprint(f"{lu_dir}/BENCH_fig5_latency.json", BASE_VOLATILE) != \
   fingerprint(f"{plain_dir}/BENCH_fig5_latency.json", BASE_VOLATILE):
    sys.exit("FAIL: hypervisor live-update changed the bench fingerprint")
print("ok: fig5 fingerprint byte-identical with and without mid-run live-update")

# --- 2. The watchdog-driven migration bench (preempt on the hot device,
# IOPT replay on the cold one, resume) must not let the node's thread
# schedule leak into the fairness-recovery figures. ---
if fingerprint(f"{ser_dir}/BENCH_migrate_rebalance.json", BASE_VOLATILE) != \
   fingerprint(f"{par_dir}/BENCH_migrate_rebalance.json", BASE_VOLATILE):
    sys.exit("FAIL: parallel stepping changed the migrate_rebalance fingerprint")
print("ok: migrate_rebalance fingerprint byte-identical, serial vs parallel")

# --- 3. The recovery actually shows: the report's after-phase grant Jain
# exceeds the before-phase value and the after-phase alert count is 0. ---
rep = json.load(open(f"{ser_dir}/BENCH_migrate_rebalance.json"))
rows = rep["tables"][0]["rows"]
before = {r[0]: r for r in rows}["before"]
after = {r[0]: r for r in rows}["after"]
if not (float(after[3]) > float(before[3])):
    sys.exit(f"FAIL: grant Jain did not recover ({before[3]} -> {after[3]})")
if int(after[4]) != 0:
    sys.exit(f"FAIL: starvation alerts persisted after rebalance ({after[4]})")
print(f"ok: fairness recovered (Jain {before[3]} -> {after[3]}, alerts {before[4]} -> 0)")
PYEOF

echo "== [8/11] sim-rate regression gate (best-of-two vs committed baseline) =="
RATE_DIR="target/simrate-gate-ci"
rm -rf "$RATE_DIR-1" "$RATE_DIR-2"
# Same knobs as stage 3 (still exported). Two runs per bench: single-run
# sim_rate on a shared host swings ~15%, best-of-two is the gate statistic
# and the committed baseline is the conservative min-of-two (see
# benchmarks/*.json "stat"), so the 20% margin holds against scheduler
# noise without masking a real regression.
for pass in 1 2; do
    export OPTIMUS_BENCH_DIR="$PWD/$RATE_DIR-$pass"
    for b in fig5_latency fig8_temporal cluster_scale; do
        cargo bench -q -p optimus-bench --bench "$b" >/dev/null
    done
done
export OPTIMUS_BENCH_DIR="$PWD/$BENCH_DIR"
python3 - "$RATE_DIR-1" "$RATE_DIR-2" <<'PYEOF'
import json, sys

run1, run2 = sys.argv[1], sys.argv[2]
BASELINES = {
    "fig5_latency": "benchmarks/BENCH_fig5.json",
    "fig8_temporal": "benchmarks/BENCH_fig8.json",
    "cluster_scale": "benchmarks/BENCH_cluster_scale.json",
}
failed = False
for bench, baseline_path in BASELINES.items():
    base = json.load(open(baseline_path))["sim_rate"]
    best = max(
        json.load(open(f"{d}/BENCH_{bench}.json"))["sim_rate"]
        for d in (run1, run2)
    )
    ratio = best / base
    tag = f"{bench}: best-of-two {best/1e6:.2f} Mc/s vs baseline {base/1e6:.2f} Mc/s"
    if ratio < 0.8:
        print(f"FAIL: {tag} — {1 - ratio:.1%} regression (bound: 20%)")
        failed = True
    elif ratio > 1.0:
        print(f"ok: {tag} — {ratio:.2f}x speedup")
    else:
        print(f"ok: {tag} — within noise ({ratio:.1%})")
if failed:
    sys.exit(1)
PYEOF

echo "== [9/11] isolation gate (spec invisibility + WildDma + noninterference) =="
SPEC_DIR="target/spec-smoke-ci"
rm -rf "$SPEC_DIR-on" "$SPEC_DIR-off"
# Spec-checked run: every CCI DMA, MMIO delivery, CPU guest access,
# migration copy, and thaw verification is checked against the high-level
# ownership model, on one fig5 sweep point.
OPTIMUS_BENCH_DIR="$PWD/$SPEC_DIR-on" OPTIMUS_FIG5_QUICK=1 OPTIMUS_SPEC=1 \
    cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
# Unchecked run of the identical point.
OPTIMUS_BENCH_DIR="$PWD/$SPEC_DIR-off" OPTIMUS_FIG5_QUICK=1 \
    cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
python3 - "$SPEC_DIR-on" "$SPEC_DIR-off" <<'PYEOF'
import sys
sys.path.insert(0, "scripts")
from fingerprint import BASE_VOLATILE, fingerprint

on_dir, off_dir = sys.argv[1], sys.argv[2]
if fingerprint(f"{on_dir}/BENCH_fig5_latency.json", BASE_VOLATILE) != \
   fingerprint(f"{off_dir}/BENCH_fig5_latency.json", BASE_VOLATILE):
    sys.exit("FAIL: the isolation spec plane changed the bench fingerprint")
print("ok: fig5 fingerprint byte-identical with the spec plane on and off")
PYEOF
# WildDma containment: probes outside the slice master-abort (nonzero
# discards), nothing leaks, and the refinement checker records zero
# violations; plus the save-refusal and MMIO-window regressions.
cargo test -q -p optimus --test spec_prop
# Noninterference differential: victim data observables bit-identical with
# and without the adversary, across threads/schedules/batching and through
# mid-run migrate + live-update with wild DMA in flight.
cargo test -q -p optimus --test noninterference_prop

echo "== [10/11] shared-channel gate (pipeline handoff + cross-tenant noninterference) =="
PIPE_DIR="target/pipe-smoke-ci"
rm -rf "$PIPE_DIR-ser" "$PIPE_DIR-par" "$PIPE_DIR-spec"
# The producer/consumer pipeline (GAU filter -> shared span -> SHA-512)
# must measure identically whatever the node's thread schedule, and the
# spec plane auditing every handle entitlement must stay invisible.
OPTIMUS_BENCH_DIR="$PWD/$PIPE_DIR-ser" OPTIMUS_NODE_THREADS=1 \
    cargo bench -q -p optimus-bench --bench pipeline_handoff >/dev/null
OPTIMUS_BENCH_DIR="$PWD/$PIPE_DIR-par" OPTIMUS_NODE_THREADS=4 \
    cargo bench -q -p optimus-bench --bench pipeline_handoff >/dev/null
OPTIMUS_BENCH_DIR="$PWD/$PIPE_DIR-spec" OPTIMUS_SPEC=1 \
    cargo bench -q -p optimus-bench --bench pipeline_handoff >/dev/null
python3 - "$PIPE_DIR-ser" "$PIPE_DIR-par" "$PIPE_DIR-spec" <<'PYEOF'
import json, sys
sys.path.insert(0, "scripts")
from fingerprint import BASE_VOLATILE, fingerprint

ser_dir, par_dir, spec_dir = sys.argv[1:4]
base = fingerprint(f"{ser_dir}/BENCH_pipeline_handoff.json", BASE_VOLATILE)
if base != fingerprint(f"{par_dir}/BENCH_pipeline_handoff.json", BASE_VOLATILE):
    sys.exit("FAIL: parallel stepping changed the pipeline_handoff fingerprint")
if base != fingerprint(f"{spec_dir}/BENCH_pipeline_handoff.json", BASE_VOLATILE):
    sys.exit("FAIL: the spec plane changed the pipeline_handoff fingerprint")
print("ok: pipeline_handoff fingerprint byte-identical (serial vs parallel, spec on/off)")

# The zero-copy channel must actually pay off: fewer end-to-end cycles
# than the staging baseline, and nothing staged through the CPU.
rep = json.load(open(f"{ser_dir}/BENCH_pipeline_handoff.json"))
rows = {r[0]: r for r in rep["tables"][0]["rows"]}
zero, copy = rows["zero-copy"], rows["copy"]
if not int(zero[1]) < int(copy[1]):
    sys.exit(f"FAIL: zero-copy ({zero[1]} cycles) did not beat copy ({copy[1]})")
if float(zero[3]) != 0.0 or float(copy[3]) <= 0.0:
    sys.exit(f"FAIL: staged-bytes columns wrong ({zero[3]} / {copy[3]})")
print(f"ok: zero-copy handoff beats CPU staging ({zero[1]} vs {copy[1]} cycles, {copy[3]} MiB staged)")
PYEOF
# Cross-tenant channel noninterference: a co-resident WildDma adversary
# aimed at the consumer's retrieved window cannot perturb the pipeline's
# digest/span observables, with or without a mid-run owner migration.
cargo test -q -p optimus --test noninterference_prop \
    adversary_cannot_perturb_shared_pipeline_observables
# Handle lifecycle + migration carry the shares; generated probe plans
# (neighbour page, mitigation gap, VCU page, live/relinquished handles)
# stay contained and shrink to the minimal violating history.
cargo test -q -p optimus --test share_migrate
cargo test -q -p optimus --test free_run_prop cross_device_share_grid_matches_lockstep_baseline

echo "== [11/11] journal gate (job-lifecycle journal + SLO accounting) =="
JRN_DIR="target/journal-smoke-ci"
rm -rf "$JRN_DIR-on" "$JRN_DIR-on2" "$JRN_DIR-off" "$JRN_DIR-off2" "$JRN_DIR-warm"
# Journal on (the default) and off, twice each. The fingerprint
# comparison uses the first pair; the sim_rate bound takes each mode's
# best of two so one scheduler hiccup can't fail the gate. A discarded
# warm-up run plus off/on interleaving keep batch-order bias (the first
# run of a batch pays the cold caches) from penalizing either mode, and
# the 20 M-cycle window makes the timed region tens of milliseconds —
# at the 180 k quick window the run is sub-millisecond and the rate is
# pure timer noise.
OPTIMUS_BENCH_DIR="$PWD/$JRN_DIR-warm" OPTIMUS_FIG5_QUICK=1 OPTIMUS_BENCH_WINDOW=20000000 \
    cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
for d in off on off2 on2; do
    case "$d" in
        off*) # explicitly disabled
            OPTIMUS_BENCH_DIR="$PWD/$JRN_DIR-$d" OPTIMUS_FIG5_QUICK=1 \
                OPTIMUS_BENCH_WINDOW=20000000 OPTIMUS_JOURNAL=0 \
                cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
            ;;
        *) # the default: no env var, journal on
            OPTIMUS_BENCH_DIR="$PWD/$JRN_DIR-$d" OPTIMUS_FIG5_QUICK=1 \
                OPTIMUS_BENCH_WINDOW=20000000 \
                cargo bench -q -p optimus-bench --bench fig5_latency >/dev/null
            ;;
    esac
done
python3 - "$JRN_DIR-on" "$JRN_DIR-on2" "$JRN_DIR-off" "$JRN_DIR-off2" <<'PYEOF'
import json, sys
sys.path.insert(0, "scripts")
from fingerprint import BASE_VOLATILE, fingerprint

on_dir, on2_dir, off_dir, off2_dir = sys.argv[1:5]
load = lambda d: json.load(open(f"{d}/BENCH_fig5_latency.json"))
on, on2, off, off2 = map(load, (on_dir, on2_dir, off_dir, off2_dir))

# --- 1. The slo section exists when on and is absent when off. ---
if "slo" not in on or not on["slo"].get("tenants"):
    sys.exit("FAIL: journal-on BENCH json lacks an slo section")
if "slo" in off:
    sys.exit("FAIL: OPTIMUS_JOURNAL=0 still emitted an slo section")

# --- 2. The journal never changes the measurement: fingerprints (minus
# the slo section itself and the metrics section, which carries slo/*
# series only when the journal is on) byte-identical on vs off; and the
# slo section itself is run-to-run deterministic. ---
VOLATILE = BASE_VOLATILE + ("slo", "metrics")
if fingerprint(on, VOLATILE) != fingerprint(off, VOLATILE):
    sys.exit("FAIL: the job journal changed the bench fingerprint")
if json.dumps(on["slo"], sort_keys=True) != json.dumps(on2["slo"], sort_keys=True):
    sys.exit("FAIL: slo section differs between identical runs")
print("ok: bench fingerprint byte-identical with the journal on and off")

# --- 3. Offline schema validation of the standalone SLO report. ---
doc = json.load(open(f"{on_dir}/SLO_fig5_latency.json"))
if doc.get("schema") != "optimus-testkit/slo-report/v1":
    sys.exit(f"FAIL: SLO report schema wrong: {doc.get('schema')}")
if doc.get("bench") != "fig5_latency":
    sys.exit(f"FAIL: SLO report bench name wrong: {doc.get('bench')}")
slo = doc["slo"]
if slo["jobs"] < 1 or not slo["tenants"]:
    sys.exit("FAIL: SLO report recorded no jobs")
DISTS = ("e2e_cycles", "queue_cycles", "install_cycles", "compute_cycles",
         "preempt_cycles", "share_stall_cycles")
COUNTS = ("submitted", "completed", "evicted", "in_flight")
for t in slo["tenants"]:
    for field in ("tenant", "payload_bytes", "goodput_bytes_per_sec") + COUNTS + DISTS:
        if field not in t:
            sys.exit(f"FAIL: tenant {t.get('tenant')} missing field {field}")
    if t["submitted"] != t["completed"] + t["evicted"] + t["in_flight"]:
        sys.exit(f"FAIL: tenant {t['tenant']} episode counts do not add up")
    for d in DISTS:
        dist = t[d]
        for f in ("count", "p50", "p95", "p99", "mean", "max"):
            if f not in dist:
                sys.exit(f"FAIL: tenant {t['tenant']} {d} missing {f}")
        if not (dist["p50"] <= dist["p95"] <= dist["p99"] <= dist["max"]):
            sys.exit(f"FAIL: tenant {t['tenant']} {d} percentiles not ordered")
    if t["completed"] and t["e2e_cycles"]["count"] != t["completed"]:
        sys.exit(f"FAIL: tenant {t['tenant']} e2e count != completed")
if doc["slo"] != on["slo"]:
    sys.exit("FAIL: standalone SLO report differs from the embedded slo section")
print(f"ok: SLO report valid ({slo['jobs']} jobs, {len(slo['tenants'])} tenants)")

# --- 4. The always-on journal is cheap: best-of-two sim_rate with the
# journal on must stay within 5% of journal off. ---
rate_on = max(on["sim_rate"], on2["sim_rate"])
rate_off = max(off["sim_rate"], off2["sim_rate"])
ratio = rate_on / rate_off
if ratio < 0.95:
    sys.exit(f"FAIL: journal-on sim_rate {rate_on:.0f} is {ratio:.1%} of "
             f"journal-off {rate_off:.0f} (bound: 95%)")
print(f"ok: journal overhead within bound (on/off sim_rate ratio {ratio:.1%})")
PYEOF

echo "CI PASSED"
