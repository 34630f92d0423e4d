#!/usr/bin/env bash
# Local CI gate: build, tests, formatting, lints, docs, and smoke runs
# of the recording, fault-injection, perf-gate, scale, matching,
# net-cluster, and broker pipelines. Everything runs offline — the
# workspace has no external dependencies.
#
# Usage:
#   ./ci.sh                full gate (every stage below)
#   ./ci.sh --quick        build + test only (the tier-1 inner loop)
#   ./ci.sh --stage NAME   build, then only the named stage — the
#                          local loop for debugging one smoke gate.
#                          Names: test, fmt, clippy, doc, codec, sink,
#                          ids, genuine, json, perfbench-build, dynamics,
#                          degradation, perf, scale, scale-sharded,
#                          matching, net-cluster, broker-bench,
#                          net-stress
#
# net-stress runs only when named: it repeats the bsub-net tests and
# the kill-worker test (bsub-bench's kill_worker: a SIGKILLed worker
# process must be named at once) ten times pinned to one CPU
# (taskset -c 0), where lost wakeups and ordering bugs that parallelism
# hides can show. Hosted CI runs it as a job of its own. It builds
# nothing in release.
#
# Smoke artifacts go to BSUB_SMOKE_DIR when set (hosted CI sets it to
# upload them), otherwise to a scratch directory removed on exit.
# BSUB_PERF_TOLERANCE widens the perf gate's time factor on known-noisy
# hosts. BSUB_NET_SMOKE_TIMEOUT bounds the net-cluster smoke stage in
# seconds (default 120).
set -euo pipefail
cd "$(dirname "$0")"

STAGES="test fmt clippy doc codec sink ids genuine json perfbench-build dynamics degradation perf scale scale-sharded matching net-cluster broker-bench net-stress"
QUICK=0
STAGE_FILTER=""
while [ $# -gt 0 ]; do
    case "$1" in
    --quick) QUICK=1 ;;
    --stage)
        shift
        if [ $# -eq 0 ]; then
            echo "--stage requires a name (one of: $STAGES)" >&2
            exit 2
        fi
        STAGE_FILTER="$1"
        case " $STAGES " in
        *" $STAGE_FILTER "*) ;;
        *)
            echo "unknown stage: $STAGE_FILTER (one of: $STAGES)" >&2
            exit 2
            ;;
        esac
        ;;
    *)
        echo "unknown flag: $1 (supported: --quick, --stage NAME)" >&2
        exit 2
        ;;
    esac
    shift
done

if [ "$QUICK" = 1 ] && [ -n "$STAGE_FILTER" ]; then
    echo "--quick and --stage are mutually exclusive" >&2
    exit 2
fi

# With --stage set, only the named stage runs (the release build always
# does — every smoke stage executes its binaries).
want() {
    [ -z "$STAGE_FILTER" ] || [ "$STAGE_FILTER" = "$1" ]
}

STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
STAGE_START=0

stage() {
    stage_end
    CURRENT_STAGE="$1"
    STAGE_START=$SECONDS
    echo "== $CURRENT_STAGE =="
}

stage_end() {
    if [ -n "$CURRENT_STAGE" ]; then
        STAGE_NAMES+=("$CURRENT_STAGE")
        STAGE_SECS+=($((SECONDS - STAGE_START)))
        CURRENT_STAGE=""
    fi
}

timing_summary() {
    stage_end
    echo
    echo "== stage timings =="
    for i in "${!STAGE_NAMES[@]}"; do
        printf '%4ss  %s\n' "${STAGE_SECS[$i]}" "${STAGE_NAMES[$i]}"
    done
    printf '%4ss  total\n' "$SECONDS"
}

if [ "$STAGE_FILTER" = net-stress ]; then
    stage "net-stress (bsub-net and kill-worker tests on one CPU, 10 times)"
    for i in $(seq 1 10); do
        echo "-- single-cpu iteration $i --"
        taskset -c 0 cargo test -p bsub-net -- -q
        taskset -c 0 cargo test -p bsub-bench --test kill_worker -- -q
    done
    timing_summary
    echo "CI OK (net-stress)"
    exit 0
fi

stage "build (cargo build --release --workspace)"
# --workspace: a plain root build only covers the umbrella package and
# would skip the bsub-bench binaries the smoke stages below execute.
cargo build --release --workspace

if want test; then
    stage "test (cargo test --workspace)"
    # `-- -q` quiets the per-test lines while keeping cargo's `Running` /
    # `Doc-tests` headers, so the count summary below can name each suite.
    TEST_LOG="$(mktemp)"
    cargo test --workspace -- -q 2>&1 | tee "$TEST_LOG"

    test_counts() {
        echo
        echo "== test counts =="
        awk '
            / Running / {
                name = $0
                sub(/^.* Running +/, "", name)
                src = name
                sub(/ \(.*\)$/, "", src)
                bin = name
                sub(/^.*\(/, "", bin)
                sub(/\)$/, "", bin)
                sub(/^.*\//, "", bin)
                sub(/-[0-9a-f]+$/, "", bin)
                name = bin " (" src ")"
                next
            }
            / Doc-tests / { name = "doc-tests " $NF; next }
            /^test result:/ {
                passed = $4
                total += passed
                printf "%6d passed  %s\n", passed, name
            }
            END { printf "%6d passed  total\n", total }
        ' "$TEST_LOG"
    }

    if [ "$QUICK" = 1 ]; then
        test_counts
        rm -f "$TEST_LOG"
        timing_summary
        echo "CI OK (quick)"
        exit 0
    fi
    rm -f "$TEST_LOG"
fi

if want fmt; then
    stage "fmt (cargo fmt --check)"
    cargo fmt --check
fi

if want clippy; then
    stage "clippy (-D warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

if want doc; then
    stage "doc (-D warnings)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
fi

if want codec; then
    stage "codec (one byte codec: no hand-rolled little-endian code)"
    # Every cursor codec is built on bsub_obs::codec (DESIGN.md §12.7).
    # Only the codec itself and the two fixed-offset formats — the TCBF
    # wire format and the frame header — may touch to_le_bytes /
    # from_le_bytes. Test code (from a file's first #[cfg(test)] on) is
    # exempt.
    CODEC_HITS="$(find crates/*/src -name '*.rs' \
        ! -path crates/obs/src/codec.rs \
        ! -path crates/bloom/src/wire.rs \
        ! -path crates/net/src/frame.rs \
        -exec awk '/#\[cfg\(test\)\]/ { nextfile } /(to|from)_le_bytes/ { print FILENAME ":" FNR ": " $0 }' {} +)"
    if [ -n "$CODEC_HITS" ]; then
        echo "hand-rolled little-endian code outside bsub_obs::codec:" >&2
        echo "$CODEC_HITS" >&2
        exit 1
    fi
fi

if want sink; then
    stage "sink (one cross-thread metrics sink: bsub_obs::SharedReport)"
    # A ProfReport shared across threads lives in bsub_obs::SharedReport
    # (DESIGN.md §15.4); a second Mutex<ProfReport> sink elsewhere would
    # re-grow the duplicated machinery it replaced. Test code (from a
    # file's first column-0 #[cfg(test)] on) is exempt.
    SINK_HITS="$(find crates/*/src src -name '*.rs' ! -path 'crates/obs/src/*' \
        -exec awk '/^#\[cfg\(test\)\]/ { nextfile } /Mutex<(bsub_obs::)?ProfReport>/ { print FILENAME ":" FNR ": " $0 }' {} +)"
    if [ -n "$SINK_HITS" ]; then
        echo "a Mutex<ProfReport> sink outside bsub_obs::SharedReport:" >&2
        echo "$SINK_HITS" >&2
        exit 1
    fi
fi

if want ids; then
    stage "ids (one message-id set: bsub_sim::MessageIdSet)"
    # Message ids are dense counters, and MessageIdSet is the paged
    # bitset over them (DESIGN.md §10); a HashSet of ids elsewhere
    # would re-grow the per-probe hashing it replaced. Test code (from
    # a file's first column-0 #[cfg(test)] on) is exempt.
    IDS_HITS="$(find crates/*/src src -name '*.rs' ! -path crates/sim/src/message.rs \
        -exec awk '/^#\[cfg\(test\)\]/ { nextfile } /HashSet<(bsub_sim::)?MessageId/ { print FILENAME ":" FNR ": " $0 }' {} +)"
    if [ -n "$IDS_HITS" ]; then
        echo "a HashSet of message ids outside bsub_sim::MessageIdSet:" >&2
        echo "$IDS_HITS" >&2
        exit 1
    fi
fi

if want genuine; then
    stage "genuine (one genuine-filter view: built once per node)"
    # A consumer's genuine filter never changes during a run, so its
    # ripped words, set-bit count and held keys are computed once, in
    # bsub-core's GenuineView (DESIGN.md §10); ripping or counting a
    # genuine filter again on the contact path would re-grow the
    # per-contact walks it replaced. Test code (from a file's first
    # column-0 #[cfg(test)] on) is exempt.
    GENUINE_HITS="$(find crates/core/src -name '*.rs' \
        -exec awk '/^#\[cfg\(test\)\]/ { nextfile } /genuine\.(ripped_words_into|set_bits)\(/ { print FILENAME ":" FNR ": " $0 }' {} +)"
    if [ -n "$GENUINE_HITS" ]; then
        echo "a genuine filter ripped or counted outside its GenuineView:" >&2
        echo "$GENUINE_HITS" >&2
        exit 1
    fi
fi

if want json; then
    stage "json (one JSON writer and reader: bsub_obs::json)"
    # Every JSON byte is written by bsub_obs::json::Object and read by
    # bsub_obs::json::Fields (DESIGN.md §7, §9); a JSON object literal
    # anywhere else — a "{\"…\":" or r#"{"…":"# string, braces doubled
    # for format! or not — would re-grow a second writer, and the
    # deleted NetTrace event log must not come back. Test code (from a
    # file's first column-0 #[cfg(test)] on) is exempt.
    JSON_HITS="$(find crates/*/src src -name '*.rs' ! -path crates/obs/src/json.rs \
        -exec awk '/^#\[cfg\(test\)\]/ { nextfile } /"\{\{?\\"|r#"\{\{?"|NetTrace|attach_trace/ { print FILENAME ":" FNR ": " $0 }' {} +)"
    if [ -n "$JSON_HITS" ]; then
        echo "a JSON object literal or net trace outside bsub_obs::json:" >&2
        echo "$JSON_HITS" >&2
        exit 1
    fi
fi

if want perfbench-build; then
    stage "perfbench-build (the repository benchmark compiles against the workspace)"
    # perfbench/ is a cargo workspace of its own (BENCHMARK.json), so
    # the workspace build above never compiles it; a removed public API
    # it uses would otherwise only surface when the benchmark runs.
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
fi

if [ -n "${BSUB_SMOKE_DIR:-}" ]; then
    SMOKE_DIR="$BSUB_SMOKE_DIR"
    mkdir -p "$SMOKE_DIR"
else
    SMOKE_DIR="$(mktemp -d)"
    trap 'rm -rf "$SMOKE_DIR"' EXIT
fi

if want dynamics; then
    stage "dynamics --smoke (recording pipeline)"
    # A tiny synthetic trace exercises the event/time-series recorders end
    # to end; artifacts go to the smoke directory so the committed figure
    # CSVs are untouched.
    BSUB_RESULTS_DIR="$SMOKE_DIR" ./target/release/dynamics --smoke
    for artifact in timeseries_fig7.csv events_fig7.jsonl; do
        test -s "$SMOKE_DIR/$artifact" || {
            echo "missing smoke artifact: $artifact" >&2
            exit 1
        }
    done
fi

if want degradation; then
    stage "degradation --smoke (fault-injection pipeline)"
    # The same trace under the fault-intensity grid: exercises contact
    # loss, truncation, churn, and control-plane corruption end to end,
    # including the monotone-degradation assertion inside the sweep.
    BSUB_RESULTS_DIR="$SMOKE_DIR" ./target/release/degradation --smoke
    test -s "$SMOKE_DIR/degradation.csv" || {
        echo "missing smoke artifact: degradation.csv" >&2
        exit 1
    }
fi

if want perf; then
    stage "perf --smoke --check (metrics & perf-regression gate)"
    # Profiles the smoke sweep with the bsub-obs metrics layer attached
    # and gates on the committed BENCH_perf.json baseline: median-of-N on
    # the host-normalized CPU time and the deterministic byte counters.
    # The gate keys entries on (experiment, workers), and the committed
    # perf_smoke entries ran on one worker: pin it, so every host
    # compares like with like instead of at its own core count.
    BSUB_WORKERS=1 BSUB_RESULTS_DIR="$SMOKE_DIR" ./target/release/perf --smoke --check
    for artifact in metrics_perf_smoke.json perf_perf_smoke.csv BENCH_perf.json; do
        test -s "$SMOKE_DIR/$artifact" || {
            echo "missing perf artifact: $artifact" >&2
            exit 1
        }
    done
    # The smoke run's metric schema and deterministic values must match
    # the committed report, key order included: every group's counters,
    # gauges and size histograms, and each timing histogram's name and
    # sample count (its nanosecond fields are wall clock). A renamed,
    # reordered or newly silent metric fails here end to end.
    command -v jq >/dev/null || {
        echo "the perf stage compares metrics with jq, which is not installed" >&2
        exit 1
    }
    METRICS_SHAPE='map_values({counters, gauges, size_bytes, time_ns: (.time_ns | map_values(.count))})'
    if ! diff <(jq "$METRICS_SHAPE" "$SMOKE_DIR/metrics_perf_smoke.json") \
        <(jq "$METRICS_SHAPE" results/metrics_perf_smoke.json); then
        echo "metrics_perf_smoke.json diverged from the committed artifact" >&2
        exit 1
    fi
fi

if want scale; then
    stage "scale --smoke --check (packed-kernel scale harness)"
    # Streams the 25k–100k-node synthetic contact schedules through the
    # word-packed TCBF kernels and gates throughput on the same baseline,
    # then diffs every deterministic column (all but `shards`, which
    # follows BSUB_SHARDS) against the committed smoke CSV.
    BSUB_RESULTS_DIR="$SMOKE_DIR" ./target/release/scale --smoke --check
    test -s "$SMOKE_DIR/scale_smoke.csv" || {
        echo "missing smoke artifact: scale_smoke.csv" >&2
        exit 1
    }
    if ! diff <(cut -d, -f1,2,4- "$SMOKE_DIR/scale_smoke.csv") \
        <(cut -d, -f1,2,4- results/scale_smoke.csv); then
        echo "scale smoke run diverged from the committed artifact" >&2
        exit 1
    fi
fi

if want scale-sharded; then
    if [ ! -s "$SMOKE_DIR/scale_smoke.csv" ]; then
        # The shard-invariance diff needs the serial run's CSV; produce
        # it here when the scale stage was filtered out.
        BSUB_RESULTS_DIR="$SMOKE_DIR" ./target/release/scale --smoke >/dev/null
    fi
    stage "scale --smoke --shards 4 (sharded engine, shard-invariance)"
    # The same sweep on the 4-shard barrier engine. Beyond exercising the
    # parallel path end to end, this asserts the shard-invariance
    # contract: every deterministic CSV column (all but the shards column
    # itself) must be byte-identical to the serial run above.
    mkdir -p "$SMOKE_DIR/sharded"
    BSUB_RESULTS_DIR="$SMOKE_DIR/sharded" ./target/release/scale --smoke --shards 4 --check
    test -s "$SMOKE_DIR/sharded/scale_smoke.csv" || {
        echo "missing smoke artifact: sharded/scale_smoke.csv" >&2
        exit 1
    }
    if ! diff <(cut -d, -f1,2,4- "$SMOKE_DIR/scale_smoke.csv") \
        <(cut -d, -f1,2,4- "$SMOKE_DIR/sharded/scale_smoke.csv"); then
        echo "sharded scale run diverged from the serial run" >&2
        exit 1
    fi
fi

if want matching; then
    stage "matching --smoke --check (subscription-aggregation index)"
    # Aggregates the smoke subscription sets, proves index-vs-reference
    # equality in-process, gates on the committed BENCH_perf.json entry,
    # and diffs the deterministic smoke CSV against the committed copy —
    # every column is a counter, so the file must match byte for byte.
    BSUB_RESULTS_DIR="$SMOKE_DIR" ./target/release/matching --smoke --check
    test -s "$SMOKE_DIR/matching_smoke.csv" || {
        echo "missing smoke artifact: matching_smoke.csv" >&2
        exit 1
    }
    if ! diff "$SMOKE_DIR/matching_smoke.csv" results/matching_smoke.csv; then
        echo "matching smoke run diverged from the committed artifact" >&2
        exit 1
    fi
fi

if want net-cluster; then
    stage "net-cluster --smoke --check (networked loopback cluster + live stats)"
    # Spins up a 3-process loopback cluster (coordinator + 2 workers over
    # Unix-domain sockets) running the smoke workload through the real
    # networked runtime with the stats plane on (STATS deltas every 100 ms
    # by default), then diffs every deterministic report column against
    # the serial simulator's and the committed results/net_smoke.csv —
    # byte for byte — and checks the net_latency.csv header against the
    # committed one (its timings are not diffed). While the cluster runs, the
    # coordinator's stats endpoint is scraped from a separate process to
    # prove the merged cluster-wide report is retrievable live; the binary
    # additionally self-checks that the scraped exposition equals the
    # final offline merge. The whole stage is bounded by
    # BSUB_NET_SMOKE_TIMEOUT (default 120 s): a wedged cluster is killed
    # and its partial output dumped rather than busy-polling forever.
    NET_LOG="$SMOKE_DIR/net_cluster.log"
    BSUB_RESULTS_DIR="$SMOKE_DIR" ./target/release/net-cluster --smoke --check \
        --stats-addr "unix:$SMOKE_DIR/stats.sock" >"$NET_LOG" 2>&1 &
    NET_CLUSTER_PID=$!
    NET_DEADLINE=$((SECONDS + ${BSUB_NET_SMOKE_TIMEOUT:-120}))
    LIVE_SCRAPE=""
    while kill -0 "$NET_CLUSTER_PID" 2>/dev/null; do
        if [ "$SECONDS" -ge "$NET_DEADLINE" ]; then
            echo "net-cluster smoke exceeded ${BSUB_NET_SMOKE_TIMEOUT:-120}s; partial output:" >&2
            cat "$NET_LOG" >&2
            kill "$NET_CLUSTER_PID" 2>/dev/null || true
            wait "$NET_CLUSTER_PID" 2>/dev/null || true
            exit 1
        fi
        if [ -z "$LIVE_SCRAPE" ] \
            && OUT="$(./target/release/net-cluster --scrape "unix:$SMOKE_DIR/stats.sock" 2>/dev/null)" \
            && printf '%s' "$OUT" | grep -q '^bsub_'; then
            LIVE_SCRAPE="$OUT"
        fi
        sleep 0.05
    done
    if ! wait "$NET_CLUSTER_PID"; then
        echo "net-cluster smoke failed; output:" >&2
        cat "$NET_LOG" >&2
        exit 1
    fi
    cat "$NET_LOG"
    if [ -z "$LIVE_SCRAPE" ]; then
        echo "live scrape of the running cluster never returned a bsub_ metric" >&2
        exit 1
    fi
    for artifact in net_smoke.csv net_smoke_sim.csv net_latency.csv net_metrics.json; do
        test -s "$SMOKE_DIR/$artifact" || {
            echo "missing smoke artifact: $artifact" >&2
            exit 1
        }
    done
    if ! diff "$SMOKE_DIR/net_smoke.csv" "$SMOKE_DIR/net_smoke_sim.csv"; then
        echo "networked cluster run diverged from the serial simulator" >&2
        exit 1
    fi
    # Against the committed report too: a change that shifted the
    # cluster and the serial run alike would pass the diff above.
    if ! diff "$SMOKE_DIR/net_smoke.csv" results/net_smoke.csv; then
        echo "net_smoke.csv differs from the committed results/net_smoke.csv" >&2
        exit 1
    fi
    # The latency CSV is wall-clock timing, so only its layout is
    # checked: the header must equal the committed file's.
    LATENCY_HEADER="$(head -n 1 "$SMOKE_DIR/net_latency.csv")"
    if [ "$LATENCY_HEADER" != "$(head -n 1 results/net_latency.csv)" ]; then
        echo "net_latency.csv header differs from results/net_latency.csv:" >&2
        echo "  smoke:     $LATENCY_HEADER" >&2
        echo "  committed: $(head -n 1 results/net_latency.csv)" >&2
        exit 1
    fi
fi

if want broker-bench; then
    stage "broker-bench --smoke --check (live broker serving gate)"
    # Open-loop clients against a live BrokerNode over Unix-domain
    # sockets (DESIGN.md §16): exact delivery fan-out, wall-clock
    # publish→deliver latency, and a perf entry gated on the committed
    # broker_smoke baseline.
    BSUB_RESULTS_DIR="$SMOKE_DIR" ./target/release/broker-bench --smoke --check
    test -s "$SMOKE_DIR/broker_qps.csv" || {
        echo "missing smoke artifact: broker_qps.csv" >&2
        exit 1
    }
fi

timing_summary
echo "CI OK"
