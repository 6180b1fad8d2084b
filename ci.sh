#!/bin/sh
# Local CI gate: everything a merge must pass, in the order fastest-fail first.
# Usage: ./ci.sh
set -eu

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo build --workspace --release =="
cargo build --workspace --release

echo "== cargo clippy --workspace --all-targets -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace -D warnings =="
# Broken, private or ambiguous intra-doc links fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test --workspace =="
cargo test --workspace --quiet

echo "== observability smoke: fprun --metrics schema =="
# Build one protected workload end-to-end through the CLI, run it with
# metrics emission and check the document parses with its stable schema
# keys intact.
OBS_DIR=$(mktemp -d)
EXEC_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_DIR" "$EXEC_DIR"' EXIT
cat > "$OBS_DIR/smoke.s" <<'EOF'
main:   li   $s0, 10
        li   $s1, 0
loop:   addu $s1, $s1, $s0
        addi $s0, $s0, -1
        bgtz $s0, loop
        move $a0, $s1
        li   $v0, 1
        syscall
        li   $v0, 10
        syscall
EOF
cargo run --quiet --release -p flexprot-cli --bin fpasm -- \
    "$OBS_DIR/smoke.s" --o "$OBS_DIR/smoke.fpx"
cargo run --quiet --release -p flexprot-cli --bin fpprotect -- \
    "$OBS_DIR/smoke.fpx" --o "$OBS_DIR/smoke.prot.fpx" \
    --secmon "$OBS_DIR/smoke.fpm" --density 1.0 --encrypt program
cargo run --quiet --release -p flexprot-cli --bin fprun -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" \
    --metrics "$OBS_DIR/smoke.metrics.json" --trace "$OBS_DIR/smoke.trace.jsonl" \
    > /dev/null
for key in '"schema":"flexprot-metrics-v1"' '"counters"' '"histograms"' \
           '"icache_accesses"' '"guard_checks_passed"' '"decrypt_stall_cycles"' \
           '"sim_cycles"' '"instructions_committed"'; do
    grep -q "$key" "$OBS_DIR/smoke.metrics.json" || {
        echo "metrics document missing $key"; exit 1;
    }
done
grep -q '"ev":"run_end"' "$OBS_DIR/smoke.trace.jsonl" || {
    echo "trace missing run_end event"; exit 1;
}
echo "metrics schema OK"

echo "== hostile FPM1: guard site without symbols =="
# The smoke build's monitor config with its first guard site rewritten to
# zero symbols and no tail. The FPM1 decoder must refuse it: fprun exits
# 2 with the typed message, never 101 (a panic) or a hang.
python3 - "$OBS_DIR/smoke.fpm" "$OBS_DIR/empty_site.fpm" <<'EOF'
import struct, sys
data = bytearray(open(sys.argv[1], "rb").read())
# FPM1: magic, u64 guard key, u32 site count, then (addr, symbols, tail)
# u32 triples.
assert data[:4] == b"FPM1" and struct.unpack_from("<I", data, 12)[0] > 0
struct.pack_into("<II", data, 20, 0, 0)
open(sys.argv[2], "wb").write(data)
EOF
status=0
timeout 60 cargo run --quiet --release -p flexprot-cli --bin fprun -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/empty_site.fpm" \
    > /dev/null 2> "$OBS_DIR/empty_site.err" || status=$?
[ "$status" -eq 2 ] || {
    echo "fprun exited $status on a guard site without symbols (expected 2)"; exit 1;
}
grep -q "empty_site.fpm: guard site 0x[0-9a-f]* has no guard symbols" "$OBS_DIR/empty_site.err" || {
    echo "fprun did not report the empty guard site:"; cat "$OBS_DIR/empty_site.err"; exit 1;
}
echo "hostile config refused OK"

echo "== hostile FPM1: decrypt latency beyond the ceiling =="
# The smoke build's monitor config with both decrypt latencies (the two
# u64s before the last two bytes) set to u64::MAX, which used to wrap the
# fill penalty. fprun and fplint must refuse it with exit code 2.
python3 - "$OBS_DIR/smoke.fpm" "$OBS_DIR/slow_decrypt.fpm" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[-18:-2] = b"\xff" * 16
open(sys.argv[2], "wb").write(data)
EOF
for driver in fprun fplint; do
    status=0
    timeout 60 cargo run --quiet --release -p flexprot-cli --bin "$driver" -- \
        "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/slow_decrypt.fpm" \
        > /dev/null 2> "$OBS_DIR/slow_decrypt.err" || status=$?
    [ "$status" -eq 2 ] || {
        echo "$driver exited $status on a hostile decrypt latency (expected 2)"; exit 1;
    }
    grep -q "slow_decrypt.fpm: decrypt cycles_per_word of 18446744073709551615 cycles exceeds" \
        "$OBS_DIR/slow_decrypt.err" || {
        echo "$driver did not report the decrypt latency:"; cat "$OBS_DIR/slow_decrypt.err"; exit 1;
    }
done
echo "hostile decrypt latency refused OK"

echo "== perfbench: correctness smoke =="
# perfbench is a Cargo package of its own, so the workspace stages above
# never compile it. One-second runs of each workload build it against the
# current crates and run its own correctness checks: the end-to-end mode
# (--trace 0) checks protect round trips and campaign tallies, the layered
# mode (--trace 1) replays evaluate() step by step and checks the staged
# trials against it. The stage only reads perfbench; every run must report
# "correct": true and "failed": 0.
for workload in loops footprint checked; do
    for trace in 0 1; do
        out="$EXEC_DIR/perfbench.$workload.$trace.txt"
        python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 1 \
            --trace "$trace" > "$out" || {
            echo "perfbench $workload --trace $trace failed to build or run"; exit 1;
        }
        tail -n 1 "$out" | python3 -c '
import json, sys
result = json.load(sys.stdin)
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' || {
            echo "perfbench $workload --trace $trace reported failed checks"; exit 1;
        }
    done
done
echo "perfbench correctness OK"

echo "== cargo bench: bench-only experiments T7 and T11 =="
# The two experiments that report wall time only. Each asserts that every
# timed run exits cleanly; the stage gates on that, not on the numbers,
# which are machine-dependent.
cargo bench --quiet -p flexprot-bench
echo "bench targets OK"

echo "== exec engine: parallel determinism =="
# The batched execution engine guarantees that a sweep's tables, CSVs and
# aggregate metrics are byte-identical whatever the worker count, and that
# the artifact cache actually shares work between cells.
cargo run --quiet --release -p flexprot-bench --bin experiments -- \
    --quick --jobs 1 --csv "$EXEC_DIR/serial" \
    --metrics "$EXEC_DIR/serial.metrics.json" \
    > "$EXEC_DIR/serial.tables.txt" 2> /dev/null
cargo run --quiet --release -p flexprot-bench --bin experiments -- \
    --quick --jobs 4 --csv "$EXEC_DIR/parallel" \
    --metrics "$EXEC_DIR/parallel.metrics.json" \
    > "$EXEC_DIR/parallel.tables.txt" 2> /dev/null
diff -u "$EXEC_DIR/serial.tables.txt" "$EXEC_DIR/parallel.tables.txt" || {
    echo "tables differ between --jobs 1 and --jobs 4"; exit 1;
}
diff -u "$EXEC_DIR/serial.metrics.json" "$EXEC_DIR/parallel.metrics.json" || {
    echo "metrics differ between --jobs 1 and --jobs 4"; exit 1;
}
diff -ru "$EXEC_DIR/serial" "$EXEC_DIR/parallel" || {
    echo "CSV output differs between --jobs 1 and --jobs 4"; exit 1;
}
grep -Eq '"exec_cache_hits":[1-9]' "$EXEC_DIR/serial.metrics.json" || {
    echo "artifact cache recorded no hits"; exit 1;
}
grep -Eq '"exec_cache_misses":[1-9]' "$EXEC_DIR/serial.metrics.json" || {
    echo "artifact cache recorded no misses"; exit 1;
}
echo "parallel determinism OK"

# check_baseline <baseline> <generated> <producer>
#
# Diffs a generated file against its checked-in baseline: a diff means the
# producer's output changed. After a deliberate change, regenerate with
# UPDATE_BASELINES=1 ./ci.sh and commit the new baseline.
check_baseline() {
    if [ "${UPDATE_BASELINES:-0}" = "1" ]; then
        cp "$2" "$1"
        echo "regenerated $1"
    fi
    diff -u "$1" "$2" || {
        echo "$3 output diverged from $1"
        echo "hint: rerun as UPDATE_BASELINES=1 ./ci.sh and commit the regenerated baseline"
        exit 1
    }
}

echo "== experiments: results/ baselines under the predecoded engine =="
# Regenerate every table at full fidelity and diff against the committed
# CSVs: the predecoded fetch path must keep all recorded numbers
# byte-identical (a diff means either a stats regression or a deliberate
# experiment change — regenerate results/ and commit). Wall-clock per
# table is logged to results/timings.csv as a perf smoke; the file is
# machine-dependent and NOT diffed (non-gating).
cargo run --quiet --release -p flexprot-bench --bin experiments -- \
    --csv "$EXEC_DIR/full" --timings results/timings.csv \
    --metrics "$EXEC_DIR/full.metrics.json" > /dev/null 2> /dev/null
for f in "$EXEC_DIR"/full/*.csv; do
    diff -u "results/$(basename "$f")" "$f" || {
        echo "results baseline diverged: $(basename "$f")"; exit 1;
    }
done
echo "results baselines OK (wall times -> results/timings.csv, non-gating)"

echo "== experiments: run metrics baseline =="
# Every counter and histogram of the full run's metrics document, as
# sorted `key value` lines: the run counters (simulator and monitor), the
# attack_* outcome and detection-cause tallies and the exec_* engine
# counters.
python3 - "$EXEC_DIR/full.metrics.json" > "$EXEC_DIR/metrics.txt" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
lines = [f"{k} {v}" for k, v in doc["counters"].items()]
for name, hist in doc["histograms"].items():
    for field, v in hist.items():
        v = ",".join(map(str, v)) if isinstance(v, list) else v
        lines.append(f"{name}.{field} {v}")
print("\n".join(sorted(lines)))
EOF
check_baseline results/metrics_baseline.txt "$EXEC_DIR/metrics.txt" experiments
echo "run metrics baseline OK"

# matrix_baseline <driver> <baseline.csv> [<ledger-option> <ledger-baseline.csv>]
#
# Sweeps the golden protection matrix (flexprot_exec::matrix) with one of
# the matrix drivers. Both runs, --jobs 1 and --jobs 4, must exit 0 (no
# error-severity finding in any cell) and write byte-identical output.
# The report, and the side ledger if the driver writes one, must then
# match the checked-in baseline (check_baseline): a diff means the
# analysis changed.
matrix_baseline() {
    driver=$1 baseline=$2 ledger_opt=${3:-} ledger=${4:-}
    echo "== $driver: protection-matrix baseline =="
    out="$EXEC_DIR/$driver"
    for jobs in 1 4; do
        set -- --jobs "$jobs" --csv "$out/jobs$jobs/report.csv"
        if [ -n "$ledger_opt" ]; then
            set -- "$@" "--$ledger_opt" "$out/jobs$jobs/ledger.csv"
        fi
        cargo run --quiet --release -p flexprot-cli --bin "$driver" -- "$@" > /dev/null || {
            echo "$driver --jobs $jobs reported error-severity findings"; exit 1;
        }
    done
    diff -ru "$out/jobs1" "$out/jobs4" || {
        echo "$driver output differs between --jobs 1 and --jobs 4"; exit 1;
    }
    set -- "$baseline" report.csv
    if [ -n "$ledger_opt" ]; then
        set -- "$@" "$ledger" ledger.csv
    fi
    while [ $# -gt 0 ]; do
        check_baseline "$1" "$out/jobs1/$2" "$driver"
        shift 2
    done
    echo "$driver baseline OK"
}

# Static tamper surface per cell: coverage, encryption and surface counts.
matrix_baseline fpsurface results/surface_baseline.csv

# Guard network and checksum proofs per cell. A mismatch column going
# non-zero means the emitter and the verifier disagree about a checksum
# constant. The --refusals ledger lists every unproven window with its
# typed reason code, so a window sliding back from proven shows up as a
# new ledger row.
matrix_baseline fpnetmap results/guardnet_baseline.csv \
    refusals results/refusals_baseline.csv

echo "== fplint --guardnet schema =="
# The machine-readable guard-network report keeps its stable schema keys.
cargo run --quiet --release -p flexprot-cli --bin fplint -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" --guardnet \
    > "$OBS_DIR/guardnet.json"
for key in '"schema":"flexprot-guardnet-v1"' '"guards"' '"nodes"' '"edges"' \
           '"min_cut"' '"proof"' '"weak_links"'; do
    grep -q "$key" "$OBS_DIR/guardnet.json" || {
        echo "guardnet document missing $key"; exit 1;
    }
done
echo "guard network schema OK"

# Translation validation per cell: the verdict column must read `proven`
# everywhere (fpequiv exits 1 on any error-severity FP8xx finding).
matrix_baseline fpequiv results/equiv_baseline.csv

echo "== fplint --equiv schema =="
# The machine-readable verdict document keeps its stable schema keys.
cargo run --quiet --release -p flexprot-cli --bin fplint -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" \
    --equiv "$OBS_DIR/smoke.fpx" > "$OBS_DIR/equiv.json"
for key in '"schema":"flexprot-equiv-v1"' '"verdict":"proven"' '"stats"' \
           '"windows"' '"refusals"' '"findings"'; do
    grep -q "$key" "$OBS_DIR/equiv.json" || {
        echo "equiv document missing $key"; exit 1;
    }
done
echo "translation validation schema OK"

echo "== key-flow taint: fplint --taint schema =="
# The extended lint document carries the taint stats object when --taint
# is on (the clean smoke build must report zero leaks) and pins it to
# null when off, so consumers can tell "no leaks" from "not checked".
cargo run --quiet --release -p flexprot-cli --bin fplint -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" --taint \
    --format json > "$OBS_DIR/taint.json"
for key in '"schema":"flexprot-lint-v1"' '"taint"' '"sources"' \
           '"tainted_stores":0' '"tainted_syscalls":0' '"key_dependent"' \
           '"unresolved_reads"'; do
    grep -q "$key" "$OBS_DIR/taint.json" || {
        echo "taint-enabled lint document missing $key"; exit 1;
    }
done
cargo run --quiet --release -p flexprot-cli --bin fplint -- \
    "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" \
    --format json > "$OBS_DIR/notaint.json"
grep -q '"taint":null' "$OBS_DIR/notaint.json" || {
    echo "lint document without --taint must carry \"taint\":null"; exit 1;
}
echo "key-flow taint schema OK"

echo "CI OK"
