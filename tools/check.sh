#!/bin/sh
# Tier-1 gate for every PR: build, run the full test suite under a fresh
# empty TMPDIR and fail if it leaves anything there, run it again with
# the C stubs under AddressSanitizer + UBSan (the `sanitize` dune
# profile, built in _build_sanitize), then smoke the CLI contracts end
# to end:
# - determinism: -j 1 output is bit-identical to -j N;
# - cache poisoning: corrupt entries are rejected, quarantined and
#   regenerated without changing a single output bit;
# - staged pipeline: cold vs warm vs interrupted-then-resumed runs are
#   bit-identical, a warm run hits all four stages and rebuilds none, a
#   run resumed after `warm --through oracle` rebuilds the other three,
#   and a second scheme on the same store loads the first scheme's
#   lp-seed LP solves;
# - servable snapshot: batched eval bit-identical to the scalar DAG
#   reference (Genlibm.eval_bits) at -j 1 and -j N, and a warm snapshot
#   loads from exactly one store entry;
# - sharded oracle warming: single-shard warms resume into a full run
#   that loads, never recomputes, the published shards;
# - stdout purity: with --trace /dev/stdout, stdout is one JSONL stream
#   and the --log-level narration goes to stderr;
# - trace: cold/warm traces carry the typed events, tracing moves no bit,
#   and a cold trace's lp.system / lp.solved seconds fit inside its poly
#   stage span (a warm trace has none);
# - faults: an injected ENOSPC exits through the typed store-io code, and
#   a process aborted mid-publish leaves a store that fsck repairs with
#   nothing quarantined and a resumed run completes bit-identically;
# - vectorization: every pass loop of the serving kernel's C stubs is
#   vectorized in its x86-64-v3 clone (tools/vec_witness.sh);
# - examples: quickstart, multi_rounding, emit_source and the paper
#   harness's E3 (bench/main.exe --post-process --quick) run to exit 0
#   against a fresh store;
# - the paper harness (bench/main.exe) rejects unknown flags;
# and finally run the repository benchmark's own tests (every workload
# prints every metric BENCHMARK.json names, and its correctness gate
# catches a flipped bit).  The serving kernel's bit identity at 2^6 and
# 2^10 elements and its per-element allocation bound are tier-1 tests
# (test/test_serve.ml).
# Usage: tools/check.sh [N]   (N = fan-out width, default 4)
set -eu

cd "$(dirname "$0")/.."
N="${1:-4}"

echo "== dune build =="
dune build

echo "== vectorization witness =="
tools/vec_witness.sh

# Every temporary file and store lives under one scratch directory.
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== test suite (fresh TMPDIR, left empty) =="
# The built suite runs directly rather than through `dune runtest`:
# dune hands each action a TMPDIR of its own and removes it afterwards,
# which would hide anything the tests leave behind.
testtmp="$work/testtmp" && mkdir "$testtmp"
TMPDIR="$testtmp" ./_build/default/test/test_main.exe
if [ -n "$(ls -A "$testtmp")" ]; then
  echo "the test suite left files in its temp dir:"; ls -A "$testtmp"; exit 1
fi
echo "the test suite left its temp dir empty"

echo "== test suite, C stubs under ASan + UBSan (fresh TMPDIR, left empty) =="
# The `sanitize` profile (root dune file) builds both stub files with
# -fsanitize=address,undefined,float-cast-overflow and their
# block-bounds checks, into a build directory of its own so the normal
# _build keeps its flags.  Leak reports are off: the OCaml runtime's
# allocations at exit were never examined.  The suite's logs (where a
# sanitizer report lands) go to _build_sanitize/test-logs.
dune build --profile sanitize --build-dir _build_sanitize \
  ./test/test_main.exe ./bin/rlibm_gen.exe
santmp="$work/sanitizetmp" && mkdir "$santmp"
sanlogs="_build_sanitize/test-logs" && rm -rf "$sanlogs" && mkdir "$sanlogs"
if ! TMPDIR="$santmp" ASAN_OPTIONS=detect_leaks=0 \
    ./_build_sanitize/default/test/test_main.exe -o "$sanlogs"; then
  echo "the sanitized suite failed; reports in $sanlogs:"
  grep -rh -A12 -e 'Sanitizer' -e 'runtime error' -e 'outside a block' \
    -e 'layout:' \
    "$sanlogs" | head -60
  exit 1
fi
if [ -n "$(ls -A "$santmp")" ]; then
  echo "the sanitized suite left files in its temp dir:"; ls -A "$santmp"; exit 1
fi
echo "the sanitized suite passed and left its temp dir empty"

echo "== -j 1 vs -j $N smoke diff =="
tmp1="$work/j1.out" && tmpN="$work/jN.out"
cachedir="$work/poison-store" && cold="$work/cold.out"
poisoned="$work/poisoned.out" && stats="$work/poisoned.stats"
mkdir "$cachedir"
# Disable the oracle disk cache so both runs actually exercise the
# (parallel) oracle construction rather than a file load.
RLIBM_NO_DISK_CACHE=1 dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func log2 --scheme estrin --ebits 4 --prec 7 --verify -j 1 > "$tmp1"
RLIBM_NO_DISK_CACHE=1 dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func log2 --scheme estrin --ebits 4 --prec 7 --verify -j "$N" > "$tmpN"
diff "$tmp1" "$tmpN"
echo "identical at -j 1 and -j $N"

echo "== cache poisoning smoke =="
# Cold-cache fingerprint: coefficients, special inputs, verify verdict.
RLIBM_CACHE_DIR="$cachedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify > "$cold"
[ -n "$(ls "$cachedir")" ] || { echo "no cache entry written"; exit 1; }
# Corrupt every cache entry (clobber the magic) and re-run: the store must
# quarantine, regenerate, and reproduce the cold-cache output bit for bit.
for f in "$cachedir"/*; do
  printf 'XXXX' | dd of="$f" bs=1 conv=notrunc 2>/dev/null
done
RLIBM_CACHE_DIR="$cachedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify --cache-stats \
  > "$poisoned" 2> "$stats"
diff "$cold" "$poisoned"
grep -Eq '[1-9][0-9]* corrupt-rejected' "$stats" \
  || { echo "corruption was not detected:"; cat "$stats"; exit 1; }
ls "$cachedir"/*.corrupt-* > /dev/null \
  || { echo "corrupt entry was not quarantined"; exit 1; }
echo "poisoned cache rejected, quarantined, and regenerated bit-identically"

echo "== staged pipeline smoke (cold / warm / resume) =="
stagedir="$work/stage-store" && resumedir="$work/resume-store"
seeddir="$work/seed-store"
coldg="$work/coldg.out" && warmg="$work/warmg.out" && resumedg="$work/resumedg.out"
stageout="$work/stages.out" && warmstats="$work/warm.stats"
seedg="$work/seedg.out" && seedstats="$work/seed.stats"
mkdir "$stagedir" "$resumedir" "$seeddir"
# Cold run: every stage rebuilt and persisted.
RLIBM_CACHE_DIR="$stagedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify > "$coldg"
# Warm run: all four stages must hit (zero rebuilds, zero store misses),
# and the generated output must not move a bit.
RLIBM_CACHE_DIR="$stagedir" dune exec --no-build bin/rlibm_gen.exe -- stages \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --cache-stats \
  > "$stageout" 2> "$warmstats"
if grep -q 'rebuilt' "$stageout"; then
  echo "warm run rebuilt a stage:"; cat "$stageout"; exit 1
fi
[ "$(grep -c '  hit  ' "$stageout")" -eq 4 ] \
  || { echo "expected 4 stage hits:"; cat "$stageout"; exit 1; }
grep -q ' 0 misses' "$warmstats" \
  || { echo "warm run missed the store:"; cat "$warmstats"; exit 1; }
grep -q 'poly' "$warmstats" \
  || { echo "per-kind counters missing:"; cat "$warmstats"; exit 1; }
RLIBM_CACHE_DIR="$stagedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify > "$warmg"
diff "$coldg" "$warmg"
echo "warm run: 4/4 stage hits, 0 rebuilt, output bit-identical"
# Interrupted run: only the oracle stage completes.
# (warm narrates on stderr; stdout is reserved for product output.)
RLIBM_CACHE_DIR="$resumedir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --ebits 4 --prec 7 2> /dev/null
# Resume: stage 1 loads, stages 2-4 rebuild, output bit-identical to cold.
RLIBM_CACHE_DIR="$resumedir" dune exec --no-build bin/rlibm_gen.exe -- stages \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 > "$stageout"
for want in 'oracle  *hit' 'constraints  *rebuilt' 'poly  *rebuilt' \
            'verdict  *rebuilt'; do
  grep -Eq "$want" "$stageout" \
    || { echo "resume expected '$want':"; cat "$stageout"; exit 1; }
done
RLIBM_CACHE_DIR="$resumedir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify > "$resumedg"
diff "$coldg" "$resumedg"
echo "interrupted run resumed from stage 2, output bit-identical"
# Second scheme on one store: the first scheme publishes every round-1
# LP solve as an lp-seed artifact, the second loads them (lp-seed hits,
# no lp-seed misses) and prints exactly what a fresh-store run of it
# prints.
RLIBM_CACHE_DIR="$seeddir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme horner --ebits 4 --prec 7 --verify > /dev/null
RLIBM_CACHE_DIR="$seeddir" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify --cache-stats \
  > "$seedg" 2> "$seedstats"
grep -Eq '^ *lp-seed +[1-9][0-9]* hits, 0 misses' "$seedstats" \
  || { echo "second scheme did not reuse the lp-seeds:"; cat "$seedstats"; exit 1; }
diff "$coldg" "$seedg"
echo "second scheme: lp-seed hits only, output = fresh-store run"

echo "== servable snapshot smoke =="
servedir="$work/serve-store" && mkdir "$servedir"
serve1="$work/serve1.out" && serveN="$work/serveN.out"
servestats="$work/serve.stats"
# Cold build at -j 1: resolves through the pipeline, persists the
# snapshot, and cross-checks every batched result against the scalar
# DAG reference (Genlibm.eval_bits) bit for bit.
RLIBM_CACHE_DIR="$servedir" dune exec --no-build bin/rlibm_gen.exe -- serve \
  --func exp2 --func log2 --ebits 4 --prec 7 --check-scalar -j 1 > "$serve1"
# Warm load at -j N: stdout (per-function result digests + scalar
# checks) must be bit-identical, and the store must be touched for
# exactly one entry of exactly one kind — the snapshot.  Zero oracle
# evaluations, zero LP solves, not even a per-stage artifact load.
RLIBM_CACHE_DIR="$servedir" dune exec --no-build bin/rlibm_gen.exe -- serve \
  --func exp2 --func log2 --ebits 4 --prec 7 --check-scalar --cache-stats \
  -j "$N" > "$serveN" 2> "$servestats"
diff "$serve1" "$serveN"
grep -Eq '^ *snapshot +1 hits, 0 misses' "$servestats" \
  || { echo "warm serve did not load the snapshot:"; cat "$servestats"; exit 1; }
if grep -Eq '^ *(oracle|intervals|constraints|poly|verdict|table) ' "$servestats"; then
  echo "warm serve touched per-stage artifacts:"; cat "$servestats"; exit 1
fi
echo "snapshot: batched eval bit-identical at -j 1 and -j $N, warm load = 1 store entry"

echo "== sharded oracle warm smoke =="
sharddir="$work/shard-store" && mkdir "$sharddir"
shardout="$work/shard.out"
# Half-run: warm two of the four oracle shards, one invocation each (the
# distributed / killed-warmer shape).  Per-shard status is the typed
# shard.done event, rendered on stderr at --log-level info, so the
# shard-status greps below read the stderr capture.
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shard 0/4 --ebits 4 --prec 7 2> /dev/null
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shard 1/4 --ebits 4 --prec 7 2> /dev/null
# Resume: the full sharded warm must load shards 0-1 from the store and
# compute only shards 2-3.
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shards 4 --ebits 4 --prec 7 \
  --cache-stats --log-level info 2> "$shardout"
for want in 'shard.done index=0 count=4 status=hit' \
            'shard.done index=1 count=4 status=hit' \
            'shard.done index=2 count=4 status=rebuilt' \
            'shard.done index=3 count=4 status=rebuilt'; do
  grep -q "$want" "$shardout" \
    || { echo "resume expected '$want':"; cat "$shardout"; exit 1; }
done
grep -Eq '^ *oracle-shard +2 hits, 2 misses' "$shardout" \
  || { echo "expected 2 shard loads + 2 computes:"; cat "$shardout"; exit 1; }
# Fully warm re-run: the republished whole table covers every shard.
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shards 4 --ebits 4 --prec 7 \
  --log-level info 2> "$shardout"
[ "$(grep -c 'shard.done index=[0-3] count=4 status=hit' "$shardout")" -eq 4 ] \
  || { echo "warm re-run expected 4 shard hits:"; cat "$shardout"; exit 1; }
if grep -q 'rebuilt' "$shardout"; then
  echo "warm re-run recomputed a shard:"; cat "$shardout"; exit 1
fi
# And the merged whole-table artifact satisfies the unsharded pipeline.
RLIBM_CACHE_DIR="$sharddir" dune exec --no-build bin/rlibm_gen.exe -- stages \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 > "$shardout"
grep -Eq 'oracle  *hit' "$shardout" \
  || { echo "oracle stage missed after sharded warm:"; cat "$shardout"; exit 1; }
echo "sharded warm: resume loads published shards, re-run all-hit, oracle stage warm"

echo "== machine-readable stdout smoke (--trace /dev/stdout) =="
# With every narration line on stderr, a trace pointed at /dev/stdout
# must leave stdout as one parseable JSONL stream: a cold oracle warm at
# --log-level info narrates on stderr, and nothing may leak into stdout.
puritydir="$work/purity-store" && mkdir "$puritydir"
RLIBM_CACHE_DIR="$puritydir" dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --ebits 4 --prec 7 --log-level info \
  --trace /dev/stdout > "$work/purity.out" 2> "$work/purity.err"
[ -s "$work/purity.err" ] || { echo "no info narration on stderr"; exit 1; }
python3 - "$work/purity.out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    lines = [json.loads(l) for l in f]  # fails if narration leaked onto stdout
assert lines and lines[0]["kind"] == "rlibm-trace", lines[:1]
assert any(e.get("ev") == "oracle.ziv" for e in lines[1:]), "no oracle.ziv event"
EOF
echo "stdout is one JSONL trace stream, narration on stderr"

echo "== trace smoke (cold/warm generate with --trace) =="
# Trace files live at a stable path (not $work) so CI can
# upload them as a post-mortem artifact when this script fails; they are
# removed only on success, at the bottom.
tracedir="_build/trace-smoke"
rm -rf "$tracedir" && mkdir -p "$tracedir"
tracegen="$work/trace-store" && mkdir "$tracegen"
tracecold="$work/tracecold.out" && tracewarm="$work/tracewarm.out"
tracenone="$work/tracenone.out"
RLIBM_CACHE_DIR="$tracegen" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify \
  --trace "$tracedir/cold.jsonl" -j 1 > "$tracecold" 2> /dev/null
RLIBM_CACHE_DIR="$tracegen" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify \
  --trace "$tracedir/warm.jsonl" -j "$N" > "$tracewarm" 2> /dev/null
# Observing the run must not move an output bit, at either job count.
RLIBM_CACHE_DIR="$tracegen" dune exec --no-build bin/rlibm_gen.exe -- generate \
  --func exp2 --scheme estrin-fma --ebits 4 --prec 7 --verify \
  -j "$N" > "$tracenone" 2> /dev/null
diff "$tracecold" "$tracewarm"
diff "$tracewarm" "$tracenone"
python3 - "$tracedir/cold.jsonl" "$tracedir/warm.jsonl" <<'EOF'
import json, sys

def load(path):
    with open(path) as f:
        lines = [json.loads(l) for l in f if l.strip()]
    assert len(lines) > 1, f"{path}: empty trace"
    header, events = lines[0], lines[1:]
    assert header["schema_version"] == 1, header
    assert header["kind"] == "rlibm-trace", header
    for key in ("timestamp", "host", "jobs"):
        assert key in header, header
    for ev in events:
        for key in ("ts", "level", "ev", "fields"):
            assert key in ev, ev
    return header, events

def stage_ends(events):
    return [e for e in events if e["ev"] == "stage.end"]

def count(events, name):
    return sum(1 for e in events if e["ev"] == name)

cold_h, cold = load(sys.argv[1])
warm_h, warm = load(sys.argv[2])
assert cold_h["jobs"] == 1, cold_h["jobs"]
# The generation loop speaks typed events: a cold run tries at least one
# degree and reports its rounds, and its oracle evaluations report which
# tier decided them (oracle.ziv); a warm run solves no LP and evaluates
# no oracle, so it has none of these.
for name in ("gen.degree", "gen.round", "oracle.ziv"):
    assert count(cold, name) >= 1, f"cold trace has no {name}"
    assert count(warm, name) == 0, f"warm trace has {count(warm, name)} {name}"
assert any(e["fields"].get("status") == "rebuilt" for e in stage_ends(cold)), \
    "cold run rebuilt no stage"
warm_ends = stage_ends(warm)
assert warm_ends, "warm trace has no stage spans"
assert all(e["fields"].get("status") == "hit" for e in warm_ends), \
    [e["fields"] for e in warm_ends]
# Timing sanity.  Stage spans nest (a cold verdict span contains the
# poly span, which contains the constraints span, ...), so only the
# top-level stage spans — those not enclosed by another stage span —
# partition the run; their durations must be non-negative and sum to no
# more than the trace's own wall clock.
for events in (cold, warm):
    stage_ids = {e["span"] for e in events
                 if e["ev"] in ("stage.begin", "stage.end")}
    secs = [e["fields"]["seconds"] for e in stage_ends(events)]
    assert all(s >= 0.0 for s in secs), secs
    top = [e["fields"]["seconds"] for e in stage_ends(events)
           if e.get("parent") not in stage_ids]
    assert top, "no top-level stage spans"
    wall = max(e["ts"] for e in events) - min(e["ts"] for e in events)
    assert sum(top) <= wall + 0.25, (sum(top), wall)
# The LP's own timing: a cold run builds each piece's LP system
# (lp.system) and solves on it (lp.solved), each event with numeric
# seconds >= 0 that together fit inside the poly stage's span; a warm
# run solves nothing, so it has neither.
poly_spans = {e["span"] for e in cold
              if e["ev"] == "stage.begin" and e["fields"].get("stage") == "poly"}
poly_s = sum(e["fields"]["seconds"] for e in stage_ends(cold)
             if e["span"] in poly_spans)
lp_s = 0.0
for name in ("lp.system", "lp.solved"):
    evs = [e for e in cold if e["ev"] == name]
    assert evs, f"cold trace has no {name}"
    for e in evs:
        s = e["fields"].get("seconds")
        assert isinstance(s, (int, float)) and not isinstance(s, bool) \
            and s >= 0.0, (name, e["fields"])
        lp_s += s
    assert count(warm, name) == 0, f"warm trace has {count(warm, name)} {name}"
assert poly_spans and lp_s <= poly_s, (lp_s, poly_s)
EOF
echo "trace: schema OK, cold run has loop, LP (seconds within the poly span) and oracle.ziv events, warm run all-hit with none, output bit-identical with tracing on"

echo "== fault smoke (injected ENOSPC, kill-point resume, fsck) =="
# Fault artifacts live at a stable path (like the trace smoke) so CI can
# upload the fsck report and any quarantined files as post-mortem
# artifacts when this script fails; removed only on success, at the
# bottom.
faultdir="_build/fault-smoke"
rm -rf "$faultdir" && mkdir -p "$faultdir"
# Sticky injected ENOSPC on every store write: warm completes the
# computation in memory but must report every failed publish and exit
# through the typed store-io code (3) with the uniform error rendering.
mkdir -p "$faultdir/enospc-store"
rc=0
RLIBM_CACHE_DIR="$faultdir/enospc-store" RLIBM_FAULT_PLAN='write@1+=enospc' \
  dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --ebits 4 --prec 7 \
  > "$faultdir/enospc.out" 2> "$faultdir/enospc.err" || rc=$?
[ "$rc" -eq 3 ] \
  || { echo "injected ENOSPC: expected exit 3, got $rc"
       cat "$faultdir/enospc.err"; exit 1; }
grep -q 'store publishes failed' "$faultdir/enospc.err" \
  || { echo "failed publishes not reported:"; cat "$faultdir/enospc.err"; exit 1; }
grep -q 'rlibm: store I/O error' "$faultdir/enospc.err" \
  || { echo "no typed store-io message:"; cat "$faultdir/enospc.err"; exit 1; }
# Kill-point: abort the process at a mutating store operation mid-way
# through a sharded publish; fsck --repair must find nothing quarantined
# (atomic publish can orphan temps, never expose a torn entry) and a
# resumed run must leave the store byte-identical to an uninterrupted
# control run.
mkdir -p "$faultdir/control" "$faultdir/killed"
RLIBM_CACHE_DIR="$faultdir/control" dune exec --no-build bin/rlibm_gen.exe -- \
  warm --func exp2 --through oracle --shards 2 --ebits 4 --prec 7 \
  2> /dev/null
rc=0
RLIBM_CACHE_DIR="$faultdir/killed" RLIBM_FAULT_PLAN='mut@4=abort' \
  dune exec --no-build bin/rlibm_gen.exe -- warm \
  --func exp2 --through oracle --shards 2 --ebits 4 --prec 7 \
  2> "$faultdir/killed.err" || rc=$?
[ "$rc" -eq 70 ] \
  || { echo "kill-point: expected abort exit 70, got $rc"
       cat "$faultdir/killed.err"; exit 1; }
dune exec --no-build bin/rlibm_gen.exe -- fsck \
  --cache-dir "$faultdir/killed" --repair > "$faultdir/fsck.out" \
  || { echo "fsck --repair failed on the killed store:"
       cat "$faultdir/fsck.out"; exit 1; }
grep -q ', 0 quarantined,' "$faultdir/fsck.out" \
  || { echo "kill left a torn entry:"; cat "$faultdir/fsck.out"; exit 1; }
RLIBM_CACHE_DIR="$faultdir/killed" dune exec --no-build bin/rlibm_gen.exe -- \
  warm --func exp2 --through oracle --shards 2 --ebits 4 --prec 7 \
  2> /dev/null
diff -r "$faultdir/control" "$faultdir/killed"
# And the resumed store passes a plain fsck scan with everything valid.
dune exec --no-build bin/rlibm_gen.exe -- fsck \
  --cache-dir "$faultdir/killed" > "$faultdir/fsck-clean.out" \
  || { echo "resumed store not fsck-clean:"
       cat "$faultdir/fsck-clean.out"; exit 1; }
grep -q ', 0 quarantined, 0 stale temps,' "$faultdir/fsck-clean.out" \
  || { echo "resumed store has findings:"; cat "$faultdir/fsck-clean.out"; exit 1; }
echo "injected ENOSPC exits 3 typed; kill-point resume bit-identical, fsck clean"

echo "== examples smoke =="
# The examples generate through the pipeline like every other caller;
# each must run to exit 0 against a fresh store.  emit_source writes
# into ./generated, so it runs inside the scratch directory.
exstore="$work/examples-store" && exdir="$work/examples"
mkdir -p "$exstore" "$exdir"
for ex in quickstart multi_rounding; do
  RLIBM_CACHE_DIR="$exstore" dune exec --no-build "examples/$ex.exe" \
    > "$exdir/$ex.out" \
    || { echo "examples/$ex.exe failed:"; cat "$exdir/$ex.out"; exit 1; }
done
(cd "$exdir" && RLIBM_CACHE_DIR="$exstore" \
  "$OLDPWD/_build/default/examples/emit_source.exe" > emit_source.out) \
  || { echo "examples/emit_source.exe failed"; exit 1; }
[ -s "$exdir/generated/exp2_estrin_fma.c" ] \
  || { echo "emit_source wrote no C source"; exit 1; }
# E3 (§6.3): the post-processed functions served through the kernel.
dune exec --no-build bench/main.exe -- --post-process --quick \
  --cache-dir "$exstore" > "$exdir/post_process.out" 2>&1 \
  || { echo "bench/main.exe --post-process failed:"
       cat "$exdir/post_process.out"; exit 1; }
echo "quickstart, multi_rounding, emit_source, E3 post-process: exit 0"

echo "== paper harness flags =="
# An experiment flag runs; an unknown flag (such as a deleted timing
# mode) fails instead of silently running the whole harness.
dune exec --no-build bench/main.exe -- --cost > /dev/null 2>&1
if dune exec --no-build bench/main.exe -- --serve-bench > /dev/null 2>&1; then
  echo "bench/main.exe accepted an unknown flag"; exit 1
fi
echo "bench/main.exe: --cost runs, an unknown flag is rejected"

echo "== benchmark self-tests =="
python3 perfbench/test_bench.py

rm -rf "$tracedir" "$faultdir"
echo "== OK =="
