#!/usr/bin/env python3
"""Compare two checkouts with the repository benchmark, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs N --pr K
        [--seed-base S]

For every workload in BENCHMARK.json it runs `python3 perfbench/run.py` in
each checkout N times untraced and TRACED_PAIRS times traced (--trace 1,
for the per-layer metrics), alternating which side goes first (odd pairs:
parent first) so that host drift hits both sides alike.  Pair i of a
workload uses seed S + i on both sides; run length is BENCHMARK.json's
run_seconds.  It writes CHANGE_DIR/BENCH_<date>_pr<K>.json in the envelope
of the earlier BENCH files: per metric the parent's and the change's
[q1, median, q3], their median ratio, the number of pairs and in how many
of them the change's value was lower; per workload the failed-operation
total and whether every run was correct.  Both trees are named by
`git describe --always --dirty` (a "-dirty" suffix: uncommitted edits).

The end-to-end metrics are the ones BENCHMARK.json (read from CHANGE_DIR)
declares; the per-layer ones are LAYERS below.  Run it from anywhere;
both directories must be git checkouts with a perfbench/ directory.
After writing the file it prints the file's path and a verdict table: one
line per (workload, end-to-end metric) with both medians, their ratio, the
pairs in which the change was lower, and WORSE where the change is worse
than the parent by more than the metric's BENCHMARK.json bound.
"""

import argparse
import datetime
import fnmatch
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# Per-layer metrics: exact names or fnmatch patterns over the names a
# run reports.  The serve-side patterns cover the kernel per function x
# scheme, what is left of it outside the polynomial, the polynomial
# alone, and Table 2 at matched degree for the two headline schemes.
LAYERS = [
    "pipeline.oracle_s",
    "constraints.s",
    "pipeline.poly_s",
    "pipeline.lp_share",
    "pipeline.verdict_s",
    "generate.rounds",
    "lp.probe_s",
    "bigint.mul_us.*",
    "genlibm.kernel_ns_per_eval.*",
    "genlibm.other_ns_per_eval.*",
    "polyeval.ns_per_eval.*",
    "polyeval.matched_ns.horner.d[456]",
    "polyeval.matched_ns.estrin-fma.d[456]",
]

# Three traced pairs read 10-50% moves on layers a change did not touch;
# five give each side's quartiles from five runs.
TRACED_PAIRS = 5


def build(tree):
    """Build the benchmark once up front so no timed run pays for it."""
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    subprocess.run(
        cmd + ["build", "--root", ".", "./perfbench/bench.exe"],
        cwd=tree, env=env, check=True, stdout=sys.stderr,
    )


def run_once(tree, workload, seed, seconds, trace):
    """One benchmark run; its JSON result (the last stdout line)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} printed nothing "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def layer_names(runs):
    """LAYERS expanded against the metric names the runs report, in
    LAYERS order."""
    seen = sorted({n for r in runs for n in r["metrics"]})
    names = []
    for pattern in LAYERS:
        names += [n for n in fnmatch.filter(seen, pattern) if n not in names]
    return names


def summarize(names, parent_runs, change_runs):
    out = {}
    for name in names:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent_runs, change_runs)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        ps = [p for p, _ in pairs]
        cs = [c for _, c in pairs]
        pq, cq = quartiles(ps), quartiles(cs)
        out[name] = {
            "parent_q1_median_q3": [round(v, 6) for v in pq],
            "change_q1_median_q3": [round(v, 6) for v in cq],
            "change_over_parent": round(cq[1] / pq[1], 4) if pq[1] else None,
            "pairs": len(pairs),
            "change_lower_in": sum(1 for p, c in pairs if c < p),
        }
    return out


def alternate(parent, change, workload, pairs, seed_base, seconds, trace):
    parent_runs, change_runs = [], []
    for i in range(pairs):
        seed = seed_base + i
        order = [(parent, parent_runs), (change, change_runs)]
        if i % 2 == 1:  # pair i + 1 is even: the change goes first
            order.reverse()
        for tree, runs in order:
            runs.append(run_once(tree, workload, seed, seconds, trace))
        print(f"{workload} {'traced' if trace else 'untraced'} pair {i + 1}/"
              f"{pairs} done", file=sys.stderr, flush=True)
    return parent_runs, change_runs


def worse(spec, parent_median, change_median):
    """Whether the change is worse than the parent beyond the metric's
    BENCHMARK.json bound (a fraction of the parent's median)."""
    if spec["better"] == "lower":
        return change_median > parent_median * (1 + spec["bound"])
    return change_median < parent_median * (1 - spec["bound"])


def verdict_table(result, end_to_end):
    """One line per (workload, end-to-end metric): both medians, their
    ratio, how many pairs the change was lower in, and WORSE where the
    change exceeds the metric's bound."""
    lines = [f"{'workload':<9} {'metric':<19} {'parent':>10} {'change':>10} "
             f"{'change_over_parent':>18} {'change_lower_in':>15}"]
    for w, res in result["workloads"].items():
        for spec in end_to_end:
            m = res["end_to_end_untraced"].get(spec["name"])
            if m is None:
                continue
            p_med = m["parent_q1_median_q3"][1]
            c_med = m["change_q1_median_q3"][1]
            ratio = m["change_over_parent"]
            mark = "  WORSE" if worse(spec, p_med, c_med) else ""
            lines.append(
                f"{w:<9} {spec['name']:<19} {p_med:>10.4g} {c_med:>10.4g} "
                f"{'-' if ratio is None else format(ratio, '.4f'):>18} "
                f"{str(m['change_lower_in']) + '/' + str(m['pairs']):>15}"
                f"{mark}")
    return "\n".join(lines)


def describe(tree):
    return subprocess.run(
        ["git", "-C", tree, "describe", "--always", "--dirty"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()


def ocaml_version():
    try:
        return subprocess.run(["ocaml", "-vnum"], stdout=subprocess.PIPE,
                              text=True).stdout.strip()
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--pairs", type=int, required=True,
                    help="untraced pairs per workload")
    ap.add_argument("--pr", type=int, required=True,
                    help="number used in the output file name")
    ap.add_argument("--seed-base", type=int, default=7000)
    args = ap.parse_args()

    parent = os.path.abspath(args.parent_dir)
    change = os.path.abspath(args.change_dir)
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]

    for tree in (parent, change):
        build(tree)

    result = {
        "schema_version": 1,
        "kind": "perfbench-pairs",
        "timestamp": int(time.time()),
        "commit": describe(change),
        "parent": describe(parent),
        "host": {
            "hostname": platform.node(),
            "os": platform.system(),
            "arch": platform.machine(),
            "cores": os.cpu_count(),
            "ocaml": ocaml_version(),
        },
        # perfbench's fixed domain-pool width and input universe
        "jobs": 2,
        "input_bits": 13,
        "method": (
            f"python3 tools/bench_pairs.py PARENT CHANGE --pairs {args.pairs} "
            f"--pr {args.pr} --seed-base {args.seed_base}: "
            f"python3 perfbench/run.py --workload W --seed {args.seed_base}+i "
            f"--seconds {seconds}; untraced: {args.pairs} alternating "
            "parent/change pairs per workload (odd pairs parent first); "
            f"traced (--trace 1): {TRACED_PAIRS} pairs per workload for "
            "the per-layer metrics. Values are [q1, median, q3]; "
            "change_lower_in counts pairs where the change's value is lower."
        ),
        "workloads": {},
    }
    for w in workloads:
        p_runs, c_runs = alternate(parent, change, w, args.pairs,
                                   args.seed_base, seconds, trace=False)
        p_tr, c_tr = alternate(parent, change, w, TRACED_PAIRS,
                               args.seed_base, seconds, trace=True)
        every = p_runs + c_runs + p_tr + c_tr
        result["workloads"][w] = {
            "end_to_end_untraced": summarize(end_to_end, p_runs, c_runs),
            "per_layer_traced": summarize(layer_names(p_tr + c_tr), p_tr,
                                          c_tr),
            "failed": sum(r["failed"] for r in every),
            "all_correct": all(r["correct"] for r in every),
        }

    out = os.path.join(
        change, f"BENCH_{datetime.date.today().isoformat()}_pr{args.pr}.json")
    with open(out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print(out)
    print(verdict_table(result, spec["end_to_end"]))


if __name__ == "__main__":
    main()
