#!/usr/bin/env bash
# Local pre-PR gate: release build, full test suite, docs and lints
# with warnings denied. Run from the repository root. Any extra
# arguments (e.g. --offline) are forwarded to every cargo invocation.
set -euo pipefail

EXTRA=("$@")

run() {
    echo "==> $*"
    "$@"
}

run cargo build --workspace --release "${EXTRA[@]+"${EXTRA[@]}"}"
run cargo test --workspace -q "${EXTRA[@]+"${EXTRA[@]}"}"
# The criterion benches must at least compile — they are the evidence
# trail for the performance work (see docs/PERFORMANCE.md).
run cargo bench --workspace --no-run -q "${EXTRA[@]+"${EXTRA[@]}"}"
# The kernel numerical-identity tests (gemm_parallel vs blocked/naive)
# are fast and worth re-running with optimisations on: release codegen
# reorders float work more aggressively than dev profile does.
run cargo test --release -p fupermod-kernels -q "${EXTRA[@]+"${EXTRA[@]}"}"
# Likewise the numerical partitioner's outcome-identity digests and its
# O(p) Newton step against the explicit Jacobian product.
run cargo test --release -p fupermod-core --test numerical_identity -q "${EXTRA[@]+"${EXTRA[@]}"}"
# The runtime's collective/fault tests — including the hub/ring/tree
# collective-parity suite (crates/runtime/tests/parity.rs) — spawn one
# thread per rank and assert on wall-clock deadlines; run them
# single-threaded so parallel test scheduling cannot starve a rank,
# and bound the whole suite.
run timeout 300 cargo test -p fupermod-runtime "${EXTRA[@]+"${EXTRA[@]}"}" -- --test-threads=1
# Tracetool gate: a traced end-to-end run must merge, report and
# schema-validate (the observability layer's contract — see
# docs/OBSERVABILITY.md §8). Uses the release binaries built above.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
run env FUPERMOD_TRACE_DIR="$TRACE_TMP" \
    ./target/release/exp2_dynamic_cost --quick --runtime sim
TRACE_FILE="$TRACE_TMP/exp2_dynamic_cost.trace.jsonl"
run ./target/release/fupermod_tracetool merge "$TRACE_FILE" \
    --out "$TRACE_TMP/merged.jsonl"
run ./target/release/fupermod_tracetool report "$TRACE_TMP/merged.jsonl" \
    --json --out "$TRACE_TMP/summary.json"
run ./target/release/fupermod_tracetool validate \
    --schema scripts/tracetool_schema.json "$TRACE_TMP/summary.json"
# Hostile-input gate: JSON nested deeper than the codec's depth cap
# must be a validation error (exit 1 with a message), not a
# stack-overflow abort.
head -c 200000 /dev/zero | tr '\0' '[' > "$TRACE_TMP/deep.json"
echo "==> tracetool validate rejects a 200000-deep document"
DEEP_CODE=0
./target/release/fupermod_tracetool validate \
    --schema scripts/tracetool_schema.json "$TRACE_TMP/deep.json" \
    2> "$TRACE_TMP/deep.err" || DEEP_CODE=$?
if [ "$DEEP_CODE" -ne 1 ] || ! grep -q 'bad JSON' "$TRACE_TMP/deep.err"; then
    echo "deep document: exit $DEEP_CODE, stderr: $(cat "$TRACE_TMP/deep.err")" >&2
    exit 1
fi
# One telemetry path: the report's histograms are the registry's
# labelled series, with no legacy `comm.<op>` duplicates and no
# counter/gauge or empty rows.
echo "==> exp2 report: histograms come from the telemetry registry"
python3 - "$TRACE_TMP/summary.json" <<'PY'
import json, sys

hists = json.load(open(sys.argv[1], encoding="utf-8"))["histograms"]
scopes = [h["scope"] for h in hists]
if not any(s.startswith("fupermod_comm_duration_seconds{op=") for s in scopes):
    sys.exit(f"no labelled comm histogram in the report: {scopes}")
legacy = [s for s in scopes if s.startswith("comm.")]
if legacy:
    sys.exit(f"legacy comm scopes in the report: {legacy}")
empty = [s for s, h in zip(scopes, hists) if h["count"] <= 0]
if empty:
    sys.exit(f"empty histogram rows in the report: {empty}")
print(f"report histograms ok: {len(hists)} rows")
PY
run ./target/release/fupermod_tracetool export "$TRACE_FILE" \
    --format chrome --out "$TRACE_TMP/chrome.json"
# Live-tail parity: following the (already complete) trace until idle
# must print exactly the sequence the batch merge produces
# (docs/OBSERVABILITY.md §9).
run ./target/release/fupermod_tracetool tail "$TRACE_FILE" \
    --idle-exit 1 --stats-every 0 --out "$TRACE_TMP/tailed.jsonl"
run diff "$TRACE_TMP/merged.jsonl" "$TRACE_TMP/tailed.jsonl"
# Event-engine scale smoke: the discrete-event interpreter must drive
# a traced p = 10 000 balancing run through the same observability
# contract as the thread backend — exp2's dynamic leg at scale, then
# tracetool merge/report/validate on the result (docs/RUNTIME.md §9).
# Bounded: the run takes single-digit seconds; a hang is a regression.
run env FUPERMOD_TRACE_DIR="$TRACE_TMP/event" \
    timeout 120 ./target/release/exp2_dynamic_cost --quick \
    --ranks 10000 --sim-engine event
EVENT_TRACE="$TRACE_TMP/event/exp2_dynamic_cost.trace.jsonl"
run ./target/release/fupermod_tracetool merge "$EVENT_TRACE" \
    --out "$TRACE_TMP/event_merged.jsonl"
run ./target/release/fupermod_tracetool report "$TRACE_TMP/event_merged.jsonl" \
    --json --out "$TRACE_TMP/event_summary.json"
run ./target/release/fupermod_tracetool validate \
    --schema scripts/tracetool_schema.json "$TRACE_TMP/event_summary.json"
# Overlap gate: on a fault-free sim plan the pipelined (ibcast
# double-buffered) matmul must produce a product **bit-identical** to
# the blocking schedule — the request API's drop-in contract (see
# docs/RUNTIME.md §8). The checksum lines are diffed; timing lines are
# not (the makespans legitimately differ — that is the point).
run ./target/release/fupermod_simulate \
    --app matmul --pipeline blocking --runtime sim --size 8 \
    | grep '^product checksum:' > "$TRACE_TMP/matmul_blocking.txt"
run ./target/release/fupermod_simulate \
    --app matmul --pipeline overlapped --runtime sim --size 8 \
    | grep '^product checksum:' > "$TRACE_TMP/matmul_overlapped.txt"
run diff "$TRACE_TMP/matmul_blocking.txt" "$TRACE_TMP/matmul_overlapped.txt"
# Engine x mode parity gate: the balancing rank program is one async
# fn that the thread-backed sim runs on rank threads and the event
# engine's driver runs as futures; blocking and overlapped runs must
# print byte-identical results on both engines (docs/RUNTIME.md §9).
PARITY_DIR="$TRACE_TMP/parity"
mkdir -p "$PARITY_DIR"
for engine in thread event; do
    for overlap in no yes; do
        echo "==> parity gate: --sim-engine $engine --overlap $overlap"
        ./target/release/fupermod_simulate --app balance --platform two-speed \
            --ranks 8 --seed 7 --size 20000 --runtime sim \
            --sim-engine "$engine" --overlap "$overlap" \
            > "$PARITY_DIR/$engine-$overlap.txt"
    done
done
for run_name in thread-yes event-no event-yes; do
    run diff "$PARITY_DIR/thread-no.txt" "$PARITY_DIR/$run_name.txt"
done
# Multi-process transport gate: a 4-process localhost TCP run of the
# balance app must print output byte-identical to the single-process
# threaded run (bit-identical final partitions), and the per-process
# trace files must stitch into one causally ordered timeline that
# passes schema validation (docs/RUNTIME.md §10).
TCP_DIR="$TRACE_TMP/tcp"
mkdir -p "$TCP_DIR"
echo "==> tcp gate: single-process reference run"
./target/release/fupermod_simulate --app balance --platform two-speed \
    --ranks 4 --seed 7 --size 20000 > "$TCP_DIR/reference.txt"
TCP_PORT=$((20000 + $$ % 20000))
declare -a TCP_PIDS=()
for r in 1 2 3; do
    timeout 120 ./target/release/fupermod_simulate --app balance \
        --platform two-speed --ranks 4 --seed 7 --size 20000 \
        --transport tcp --rank-id "$r" --world 4 \
        --rendezvous "127.0.0.1:$TCP_PORT" --trace-dir "$TCP_DIR" &
    TCP_PIDS[$r]=$!
done
echo "==> tcp gate: 4-process localhost run (rank 0 foreground, port $TCP_PORT)"
timeout 120 ./target/release/fupermod_simulate --app balance \
    --platform two-speed --ranks 4 --seed 7 --size 20000 \
    --transport tcp --rank-id 0 --world 4 \
    --rendezvous "127.0.0.1:$TCP_PORT" --trace-dir "$TCP_DIR" \
    > "$TCP_DIR/rank0.txt"
for r in 1 2 3; do wait "${TCP_PIDS[$r]}"; done
run diff "$TCP_DIR/reference.txt" "$TCP_DIR/rank0.txt"
run ./target/release/fupermod_tracetool merge \
    "$TCP_DIR"/fupermod_simulate.rank*.trace.jsonl \
    --out "$TCP_DIR/tcp_merged.jsonl"
run ./target/release/fupermod_tracetool report "$TCP_DIR/tcp_merged.jsonl" \
    --json --out "$TCP_DIR/tcp_summary.json"
run ./target/release/fupermod_tracetool validate \
    --schema scripts/tracetool_schema.json "$TCP_DIR/tcp_summary.json"
# Serving gate: the partitioning-as-a-service daemon (fupermod_served,
# docs/SERVE.md) must accept concurrent clients streaming model points
# and answer a partition query **byte-identical** to the offline
# fupermod_builder + fupermod_partitioner pipeline over the same
# points, then shut down cleanly — all under a timeout so a wedged
# accept loop is a failure, not a hang.
SERVE_DIR="$TRACE_TMP/serve"
mkdir -p "$SERVE_DIR"
run ./target/release/fupermod_builder --platform two-speed --points 8 \
    --lo 64 --hi 8192 --out "$SERVE_DIR/models" > /dev/null
echo "==> serve gate: offline reference partition"
./target/release/fupermod_partitioner --models "$SERVE_DIR/models" \
    --total 20000 --algorithm numerical --model akima \
    > "$SERVE_DIR/offline.txt"
echo "==> serve gate: daemon + concurrent ingest clients + live /metrics"
timeout 120 ./target/release/fupermod_served --mode serve \
    --listen 127.0.0.1:0 --metrics-listen 127.0.0.1:0 \
    > "$SERVE_DIR/daemon.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 100); do
    grep -q '^listening on ' "$SERVE_DIR/daemon.out" && break
    sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^listening on //p' "$SERVE_DIR/daemon.out")
[ -n "$SERVE_ADDR" ] || { echo "daemon never announced its address" >&2; exit 1; }
METRICS_ADDR=$(sed -n 's/^metrics on //p' "$SERVE_DIR/daemon.out")
[ -n "$METRICS_ADDR" ] || { echo "daemon never announced its metrics address" >&2; exit 1; }
run timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /healthz
run timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /readyz
declare -a SERVE_PIDS=()
i=0
for f in "$SERVE_DIR"/models/*.points; do
    timeout 60 ./target/release/fupermod_served --mode ingest \
        --connect "$SERVE_ADDR" --points "$f" \
        --fingerprint "$(basename "$f")" > "$SERVE_DIR/client_$i.out" &
    SERVE_PIDS[$i]=$!
    i=$((i + 1))
done
# Scrape the health endpoints while the ingest clients are running:
# the observability plane must answer during load, not just at rest.
timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /healthz > /dev/null
timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /metrics > /dev/null
for pid in "${SERVE_PIDS[@]}"; do wait "$pid"; done
FPS=$(cd "$SERVE_DIR/models" && ls -- *.points | paste -sd, -)
echo "==> serve gate: partition query against the warm daemon"
timeout 60 ./target/release/fupermod_served --mode partition \
    --connect "$SERVE_ADDR" --fingerprints "$FPS" \
    --total 20000 --algorithm numerical > "$SERVE_DIR/served.txt" 2>/dev/null
run diff "$SERVE_DIR/offline.txt" "$SERVE_DIR/served.txt"
echo "==> serve gate: exposition parses and counters match client totals"
timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /metrics > "$SERVE_DIR/metrics.txt"
python3 - "$SERVE_DIR" <<'PY'
import glob, re, sys

serve_dir = sys.argv[1]
text = open(f"{serve_dir}/metrics.txt", encoding="utf-8").read()

# Every non-comment line must parse as `name{labels} value`.
sample = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? '
    r"(-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)
lines = [l for l in text.splitlines() if l and not l.startswith("#")]
if not lines:
    sys.exit("no samples in /metrics output")
for l in lines:
    if not sample.match(l):
        sys.exit(f"unparsable exposition line: {l!r}")

def counter_total(name, **labels):
    total = 0
    for l in lines:
        if not l.startswith(name):
            continue
        head, value = l.rsplit(" ", 1)
        if all(f'{k}="{v}"' in head for k, v in labels.items()):
            total += int(float(value))
    return total

# Each client printed `ingested N points ...`; every point was one
# ingest_point request, so the ok-counter must equal the client total.
expected = 0
for path in glob.glob(f"{serve_dir}/client_*.out"):
    for line in open(path, encoding="utf-8"):
        m = re.match(r"^ingested (\d+) points", line)
        if m:
            expected += int(m.group(1))
if expected == 0:
    sys.exit("ingest clients reported no points — gate is vacuous")
got = counter_total("served_requests_total", op="ingest_point", outcome="ok")
if got != expected:
    sys.exit(f"served_requests_total[ingest_point,ok] = {got}, clients sent {expected}")
if counter_total("served_requests_total", op="partition", outcome="ok") < 1:
    sys.exit("partition request not counted")
if counter_total("served_requests_total", outcome="error") != 0:
    sys.exit("unexpected error-outcome requests during the gate")
print(f"exposition ok: {len(lines)} samples, "
      f"{got} ingest_point requests matched the client total")
PY
# The protocol `stats` op must read the same registry snapshot the
# exposition serves (one source of truth), including uptime.
timeout 60 ./target/release/fupermod_served --mode stats \
    --connect "$SERVE_ADDR" > "$SERVE_DIR/stats.txt"
grep -q '^uptime_seconds ' "$SERVE_DIR/stats.txt" \
    || { echo "stats output missing uptime_seconds" >&2; exit 1; }
run timeout 60 ./target/release/fupermod_served --mode shutdown \
    --connect "$SERVE_ADDR"
wait "$SERVE_PID"
# After shutdown the observability plane must be gone with the daemon:
# a scrape that still succeeds means the listener out-lived serve().
if timeout 10 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /readyz > /dev/null 2>&1; then
    echo "metrics listener still answering after shutdown" >&2
    exit 1
fi
# Bench regression gate (opt-in — needs two recorded BENCH_PR*.json
# files from this host; see scripts/bench_compare.sh):
#   BENCH_COMPARE_BASELINE=old.json BENCH_COMPARE_CURRENT=new.json scripts/check.sh
# When only BENCH_COMPARE_CURRENT is set, the baseline defaults to the
# newest committed BENCH_*.json that shares at least one benchmark
# with the current file (different recording MODEs measure disjoint
# bench sets, which bench_compare.sh rightly refuses to compare).
if [ -n "${BENCH_COMPARE_BASELINE:-}" ] || [ -n "${BENCH_COMPARE_CURRENT:-}" ]; then
    : "${BENCH_COMPARE_CURRENT:?set both BENCH_COMPARE_BASELINE and BENCH_COMPARE_CURRENT (or at least CURRENT)}"
    if [ -z "${BENCH_COMPARE_BASELINE:-}" ]; then
        for candidate in $(ls -t BENCH_*.json 2>/dev/null \
                | grep -vFx "$BENCH_COMPARE_CURRENT" || true); do
            if python3 -c '
import json, sys
names = lambda p: set(json.load(open(p)).get("results_stats", {}))
sys.exit(0 if names(sys.argv[1]) & names(sys.argv[2]) else 1)
' "$candidate" "$BENCH_COMPARE_CURRENT" 2>/dev/null; then
                BENCH_COMPARE_BASELINE=$candidate
                break
            fi
        done
        if [ -n "${BENCH_COMPARE_BASELINE:-}" ]; then
            echo "==> bench compare baseline auto-selected: $BENCH_COMPARE_BASELINE"
        else
            # First recording of a new MODE has nothing to diff
            # against — note it and move on rather than fail.
            echo "==> bench compare skipped: no BENCH_*.json shares benchmarks with $BENCH_COMPARE_CURRENT"
        fi
    fi
    if [ -n "${BENCH_COMPARE_BASELINE:-}" ]; then
        run scripts/bench_compare.sh "$BENCH_COMPARE_BASELINE" "$BENCH_COMPARE_CURRENT"
    fi
fi
# The runtime crate must also be clippy-clean on its own — including
# the discrete-event simulator (`src/sim/`), whose hot dispatch loop
# is exactly where sloppy clones and needless collects would hide.
# (The workspace pass below covers it too, but a targeted run keeps
# these lints enforced even when other crates are temporarily excluded
# from a gate.)
run cargo clippy -p fupermod-runtime --all-targets "${EXTRA[@]+"${EXTRA[@]}"}" -- -D warnings
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps -q "${EXTRA[@]+"${EXTRA[@]}"}"
run cargo clippy --workspace --all-targets "${EXTRA[@]+"${EXTRA[@]}"}" -- -D warnings

echo "==> all checks passed"
