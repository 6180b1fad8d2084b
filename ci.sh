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
# The predecoded engine steps a cache line at a time; the reference engine
# steps every fetch on its own. Under a 256-byte I-cache (refills all the
# time) both must write the same metrics document and the same trace.
for engine in reference predecoded; do
    cargo run --quiet --release -p flexprot-cli --bin fprun -- \
        "$OBS_DIR/smoke.prot.fpx" --secmon "$OBS_DIR/smoke.fpm" \
        --engine "$engine" --icache 256 \
        --metrics "$OBS_DIR/smoke.$engine.metrics.json" \
        --trace "$OBS_DIR/smoke.$engine.trace.jsonl" > /dev/null
done
cmp "$OBS_DIR/smoke.reference.metrics.json" "$OBS_DIR/smoke.predecoded.metrics.json"
cmp "$OBS_DIR/smoke.reference.trace.jsonl" "$OBS_DIR/smoke.predecoded.trace.jsonl"
# rle under per-block keys and sparse guards: its text ends inside a
# 32-byte line, and under a 512-byte direct-mapped I-cache it refills.
# The monitor counts a fill's encrypted words from its per-word table and
# looks the words past the text up in the region table; the last line's
# fill takes both paths.
cargo run --quiet --release -p flexprot-cli --bin fpasm -- \
    crates/workloads/asm/rle.s --o "$OBS_DIR/rle.fpx" > /dev/null
cargo run --quiet --release -p flexprot-cli --bin fpprotect -- \
    "$OBS_DIR/rle.fpx" --o "$OBS_DIR/rle.prot.fpx" \
    --secmon "$OBS_DIR/rle.fpm" --density 0.25 --encrypt block > /dev/null
set -- $(cargo run --quiet --release -p flexprot-cli --bin fpobjdump -- \
    "$OBS_DIR/rle.prot.fpx" | sed -n '1s/.* text \(0x[0-9a-f]*\)+\([0-9]*\) words.*/\1 \2/p')
base=$1 words=$2
[ $((words % 8)) -ne 0 ] || {
    echo "rle's protected text ($words words) no longer ends inside a line"; exit 1;
}
for engine in reference predecoded; do
    cargo run --quiet --release -p flexprot-cli --bin fprun -- \
        "$OBS_DIR/rle.prot.fpx" --secmon "$OBS_DIR/rle.fpm" \
        --engine "$engine" --icache 512 --icache-ways 1 \
        --metrics "$OBS_DIR/rle.$engine.metrics.json" \
        --trace "$OBS_DIR/rle.$engine.trace.jsonl" > /dev/null
done
cmp "$OBS_DIR/rle.reference.metrics.json" "$OBS_DIR/rle.predecoded.metrics.json"
cmp "$OBS_DIR/rle.reference.trace.jsonl" "$OBS_DIR/rle.predecoded.trace.jsonl"
last_line=$(printf '0x%08x' $((base + words / 8 * 32)))
grep -q "\"ev\":\"decrypt\",\"line\":\"$last_line\"" "$OBS_DIR/rle.predecoded.trace.jsonl" || {
    echo "rle's last text line $last_line was never filled with decryption"; exit 1;
}
echo "engines agree through fprun OK"

echo "== fprun --trace: bounded memory =="
# A traced run streams its events to the trace file, so its peak RSS must
# stay near the untraced run's whatever the trace length: bitcount under
# guards d=1.0 plus program encryption writes a 27 MB trace. fprun runs
# directly, not through cargo run, each run as the only child of its own
# python process, so the reading is fprun's own peak.
BIN=${CARGO_TARGET_DIR:-target}/release
"$BIN/fpasm" crates/workloads/asm/bitcount.s --o "$OBS_DIR/bitcount.fpx" > /dev/null
"$BIN/fpprotect" "$OBS_DIR/bitcount.fpx" --o "$OBS_DIR/bitcount.prot.fpx" \
    --secmon "$OBS_DIR/bitcount.fpm" --density 1.0 --encrypt program > /dev/null
peak_rss_kib() {
    python3 -c '
import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
' "$BIN/fprun" "$OBS_DIR/bitcount.prot.fpx" --secmon "$OBS_DIR/bitcount.fpm" "$@"
}
plain=$(peak_rss_kib)
traced=$(peak_rss_kib --trace "$OBS_DIR/bitcount.trace.jsonl")
rm -f "$OBS_DIR/bitcount.trace.jsonl"
echo "bitcount peak RSS: $plain KiB untraced, $traced KiB with --trace"
[ $((traced * 4)) -le $((plain * 5)) ] || {
    echo "the traced run exceeds 1.25x the untraced peak RSS"; exit 1;
}
echo "trace memory bounded OK"

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

echo "== hostile program: tainted store at the top of the stack offsets =="
# A ciphertext word stored at $sp + 0x7ffffffc, the last aligned stack
# slot below 2^31. The key-flow pass used to walk the store's word span
# past i32::MAX and insert about 2^30 slots until memory ran out. Under a
# 512 MiB address-space limit fplint --taint must exit 0 or 1, never 134
# (an abort) or 124 (the timeout).
cat > "$OBS_DIR/top_slot.s" <<'EOF'
main:   nop
        nop
        lui  $t0, 0x40
        lw   $t1, 0($t0)
        lui  $t2, 0x7fff
        ori  $t2, $t2, 0xfffc
        add  $t3, $sp, $t2
        sw   $t1, 0($t3)
        li   $v0, 10
        syscall
EOF
"$BIN/fpasm" "$OBS_DIR/top_slot.s" --o "$OBS_DIR/top_slot.fpx" > /dev/null
"$BIN/fpprotect" "$OBS_DIR/top_slot.fpx" --o "$OBS_DIR/top_slot.prot.fpx" \
    --secmon "$OBS_DIR/top_slot.fpm" --encrypt program > /dev/null
status=0
(ulimit -v 524288; timeout 60 "$BIN/fplint" "$OBS_DIR/top_slot.prot.fpx" \
    --secmon "$OBS_DIR/top_slot.fpm" --taint > /dev/null 2>&1) || status=$?
[ "$status" -eq 0 ] || [ "$status" -eq 1 ] || {
    echo "fplint --taint exited $status on a store at the top stack slot (expected 0 or 1)"; exit 1;
}
echo "top stack slot store analysed OK"

echo "== tampered guard window: fplint reports every finding =="
# The smoke build with one bit flipped in the text word just before its
# first guard site, inside that guard's window. The attack harness only
# asks whether such an image is flagged, and that verdict stops at the
# first error; fplint must still run every check and list both errors:
# the signature recheck (FP102) and the checksum proof that re-derives
# it (FP703).
python3 - "$OBS_DIR/smoke.prot.fpx" "$OBS_DIR/smoke.fpm" "$OBS_DIR/flipped.fpx" <<'EOF'
import struct, sys
data = bytearray(open(sys.argv[1], "rb").read())
fpm = open(sys.argv[2], "rb").read()
# FPX1: magic, u32 entry, text_base, data_base, text_words, then the
# text words. FPM1: the first site address follows magic, key and count.
text_base = struct.unpack_from("<I", data, 8)[0]
site = struct.unpack_from("<I", fpm, 16)[0]
index = (site - text_base) // 4 - 1
data[20 + 4 * index] ^= 1 << 5
open(sys.argv[3], "wb").write(data)
EOF
status=0
"$BIN/fplint" "$OBS_DIR/flipped.fpx" --secmon "$OBS_DIR/smoke.fpm" \
    > "$OBS_DIR/flipped.lint" || status=$?
[ "$status" -eq 1 ] || {
    echo "fplint exited $status on a tampered guard window (expected 1)"; exit 1;
}
errors=$(grep -o '^error: \[FP[0-9]*\]' "$OBS_DIR/flipped.lint" | tr '\n' ' ')
[ "$errors" = "error: [FP102] error: [FP703] " ] || {
    echo "fplint did not list FP102 and FP703 (got: $errors):"; cat "$OBS_DIR/flipped.lint"; exit 1;
}
echo "tampered guard window fully reported OK"

echo "== report drivers: a reader that stops early =="
# `fpobjdump x.fpx | head -1` used to panic with "failed printing to
# stdout: Broken pipe" and exit 101 when head had gone before the
# driver's write. Here head -1 takes a line from `echo` and goes first;
# the driver starts a moment later, writes into the closed pipe, and
# must still exit 0 (pipefail: its status is the pipeline's) with
# nothing on stderr.
for cmd in "fpobjdump $OBS_DIR/smoke.prot.fpx --secmon $OBS_DIR/smoke.fpm" \
           "fplint $OBS_DIR/smoke.prot.fpx --secmon $OBS_DIR/smoke.fpm" \
           "fpmatrix --programs collatz --jobs 1"; do
    status=0
    bash -c "set -o pipefail; { echo; sleep 0.2; exec \"$BIN\"/$cmd; } | head -1 > /dev/null" \
        2> "$OBS_DIR/pipe.err" || status=$?
    [ "$status" -eq 0 ] && [ ! -s "$OBS_DIR/pipe.err" ] || {
        echo "$cmd | head -1 exited $status:"; cat "$OBS_DIR/pipe.err"; exit 1;
    }
done
echo "early-stopping readers OK"

echo "== perfbench: correctness smoke =="
# perfbench is a Cargo package of its own, so the workspace stages above
# never compile it. One-second runs of each workload build it against the
# current crates and run its own correctness checks: the end-to-end mode
# (--trace 0) checks protect round trips and campaign tallies, the layered
# mode (--trace 1) times each step of a trial separately, running every
# mutant from instruction 0 on a re-armed, traced machine (evaluate() forks
# its trials from one pristine run instead), and checks that the staged
# trials agree with evaluate() on the outcome counts. The stage only reads
# perfbench; every run must report "correct": true and "failed": 0.
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
# table is printed as a perf smoke; it is machine-dependent, so it goes
# to a scratch file rather than the tracked results/timings.csv and is
# NOT diffed (non-gating).
cargo run --quiet --release -p flexprot-bench --bin experiments -- \
    --csv "$EXEC_DIR/full" --timings "$EXEC_DIR/timings.csv" \
    --metrics "$EXEC_DIR/full.metrics.json" > /dev/null 2> /dev/null
for f in "$EXEC_DIR"/full/*.csv; do
    diff -u "results/$(basename "$f")" "$f" || {
        echo "results baseline diverged: $(basename "$f")"; exit 1;
    }
done
# The table set must match both ways: a table the run no longer writes
# fails as surely as one whose numbers moved.
committed=$(cd results && ls [tf][0-9]*.csv)
produced=$(cd "$EXEC_DIR/full" && ls *.csv)
[ "$committed" = "$produced" ] || {
    echo "results table set differs: committed [$(echo $committed)], produced [$(echo $produced)]"
    exit 1
}
cat "$EXEC_DIR/timings.csv"
echo "results baselines OK (wall times above, non-gating)"

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

echo "== fpmatrix: protection-matrix baselines =="
# One sweep of the golden protection matrix (flexprot_exec::matrix) writes
# four tables. Both runs, --jobs 1 and --jobs 4, must exit 0 (no
# error-severity finding in any cell) and write byte-identical
# directories. Each table must then match its checked-in baseline
# (check_baseline): a diff means the analysis changed.
#   surface.csv  - static tamper surface per cell: coverage, encryption
#                  and surface counts.
#   guardnet.csv - guard network and checksum proofs per cell. A mismatch
#                  column going non-zero means the emitter and the
#                  verifier disagree about a checksum constant.
#   refusals.csv - every unproven window with its typed reason code, so a
#                  window sliding back from proven shows up as a new row.
#   equiv.csv    - translation validation per cell: the verdict column
#                  must read `proven` everywhere (an error-severity FP8xx
#                  finding makes fpmatrix exit 1).
MATRIX_DIR="$EXEC_DIR/matrix"
for jobs in 1 4; do
    cargo run --quiet --release -p flexprot-cli --bin fpmatrix -- \
        --jobs "$jobs" --csv "$MATRIX_DIR/jobs$jobs" > /dev/null || {
        echo "fpmatrix --jobs $jobs reported error-severity findings"; exit 1;
    }
done
diff -ru "$MATRIX_DIR/jobs1" "$MATRIX_DIR/jobs4" || {
    echo "fpmatrix output differs between --jobs 1 and --jobs 4"; exit 1;
}
# The table set must be exactly the four pinned tables.
produced=$(cd "$MATRIX_DIR/jobs1" && ls)
[ "$(echo $produced)" = "equiv.csv guardnet.csv refusals.csv surface.csv" ] || {
    echo "fpmatrix table set differs: produced [$(echo $produced)]"; exit 1;
}
for table in surface guardnet refusals equiv; do
    check_baseline "results/${table}_baseline.csv" "$MATRIX_DIR/jobs1/$table.csv" fpmatrix
done
echo "fpmatrix baselines OK"

echo "== fpsweep: --csv directory across worker counts =="
# --csv names a directory for every batch driver; fpsweep saves its one
# table there as sweep.csv. The --jobs 1 and --jobs 4 directories must be
# byte-identical and hold exactly that file.
SWEEP_DIR="$EXEC_DIR/sweep"
for jobs in 1 4; do
    cargo run --quiet --release -p flexprot-cli --bin fpsweep -- \
        --workloads rle,qsort --densities 0.25,1.0 --jobs "$jobs" \
        --csv "$SWEEP_DIR/jobs$jobs" > /dev/null
done
diff -ru "$SWEEP_DIR/jobs1" "$SWEEP_DIR/jobs4" || {
    echo "fpsweep output differs between --jobs 1 and --jobs 4"; exit 1;
}
produced=$(cd "$SWEEP_DIR/jobs1" && ls)
[ "$(echo $produced)" = "sweep.csv" ] || {
    echo "fpsweep table set differs: produced [$(echo $produced)]"; exit 1;
}
echo "fpsweep csv OK"

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

echo "== emitted documents parse as JSON =="
# The stages above grep the documents for their keys; this one parses
# them. Every metrics, guardnet, equiv and lint document must load as
# JSON, and so must every line of the smoke trace. The first that does
# not fails the gate.
python3 - "$OBS_DIR" "$EXEC_DIR" <<'EOF'
import json, os, sys
obs, exe = sys.argv[1], sys.argv[2]
documents = [os.path.join(obs, name) for name in (
    "smoke.metrics.json", "guardnet.json", "equiv.json", "taint.json",
    "notaint.json")] + [os.path.join(exe, "full.metrics.json")]
for path in documents:
    with open(path) as f:
        try:
            json.load(f)
        except ValueError as e:
            sys.exit(f"{path} does not parse as JSON: {e}")
trace = os.path.join(obs, "smoke.trace.jsonl")
with open(trace) as f:
    for number, line in enumerate(f, 1):
        try:
            json.loads(line)
        except ValueError as e:
            sys.exit(f"{trace}:{number} does not parse as JSON: {e}")
EOF
echo "emitted documents parse OK"

echo "CI OK"
