#!/usr/bin/env python3
"""A/A check of the benchmark: two interleaved sets of runs of the same build.

For every workload and end-to-end metric it prints both medians, both
quartile pairs, each set's spread (quartile distance over median, computed
with statistics.quantiles(values, n=4) as the driver does), how much worse
the second median is than the first, and whether all of that stays within the
metric's bound in BENCHMARK.json. Every run gets a seed of its own.

    python3 benchmark/aa.py                 # 10 + 10 runs of each workload
    python3 benchmark/aa.py -n 8 -w tree-read -w wire-read
    python3 benchmark/aa.py --same-seed     # also: two runs of one seed must
                                            # agree bit for bit on the modeled
                                            # metrics of the library workloads
    python3 benchmark/aa.py --replay .bench_build/aa-1790580015.json

Run it from the root of the checkout. Raw results go to .bench_build/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ("modeled_mops", "chan_bytes_per_op", "pim_imbalance")
EXACT_WORKLOADS = ("tree-read", "tree-churn")


def run(contract, workload, seed, trace=0):
    cmd = contract["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(contract["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect: {result['failed']} of {result['attempted']} failed")
    print(f"  {workload} seed {seed}: {time.time() - t0:.1f} s", file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-n", type=int, default=10, help="runs per set (default 10)")
    ap.add_argument("-w", "--workload", action="append", help="workload to run (default: all)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true", help="also check bit-equality of two runs of one seed")
    ap.add_argument("--markdown", action="store_true", help="print the table as markdown")
    ap.add_argument("--replay", metavar="FILE", help="judge the raw results of an earlier run against the bounds as they are now")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    names = args.workload or [w["name"] for w in contract["workloads"]]
    ok = True
    raw = {}
    if args.replay:
        with open(args.replay) as f:
            raw = json.load(f)
        names = list(raw)
    rows = []
    for workload in names:
        sets = raw.get(workload) or ([], [])
        seed = args.first_seed
        for _ in range(0 if args.replay else args.n):  # A, B, A, B, ...: a slow stretch of the box hits both sets
            for s in sets:
                s.append(run(contract, workload, seed))
                seed += 1
        raw[workload] = sets
        for m in contract["end_to_end"]:
            a = [r[m["name"]] for r in sets[0]]
            b = [r[m["name"]] for r in sets[1]]
            ma, mb = statistics.median(a), statistics.median(b)
            q1a, q3a, sa = spread(a)
            q1b, q3b, sb = spread(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            passed = worse <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
            steady = m["name"] == "setup_s" or max(sa, sb) <= m["bound"] / 3
            ok = ok and passed
            rows.append((workload, m["name"], m["unit"], ma, q1a, q3a, sa, mb, q1b, q3b, sb, worse, m["bound"],
                         "pass" if passed and steady else "pass (spread over a third of the bound)" if passed else "FAIL"))
        if args.same_seed and not args.replay and workload in EXACT_WORKLOADS:
            x, y = run(contract, workload, args.first_seed), run(contract, workload, args.first_seed)
            for name in EXACT:
                same = x[name] == y[name]
                ok = ok and same
                print(f"{workload} {name}: two runs of seed {args.first_seed}: {x[name]!r} {y[name]!r} "
                      f"{'bit-equal' if same else 'DIFFER'}")

    out = args.replay
    if not out:
        os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
        out = os.path.join(ROOT, ".bench_build", f"aa-{int(time.time())}.json")
        with open(out, "w") as f:
            json.dump(raw, f)

    head = ("workload", "metric", "unit", "median A", "q1 A", "q3 A", "spread A",
            "median B", "q1 B", "q3 B", "spread B", "B worse by", "bound", "verdict")
    if args.markdown:
        print("| " + " | ".join(head) + " |")
        print("|" + "---|" * len(head))
    else:
        print(("{:<12}{:<18}{:<6}" + "{:>12}" * 10 + "  {}").format(*head))
    for r in rows:
        cells = [r[0], r[1], r[2]] + [f"{v:.5g}" for v in r[3:6]] + [f"{r[6]:.2%}"] + \
                [f"{v:.5g}" for v in r[7:10]] + [f"{r[10]:.2%}", f"{r[11]:+.2%}", f"{r[12]:.1%}", r[13]]
        if args.markdown:
            print("| " + " | ".join(cells) + " |")
        else:
            print(("{:<12}{:<18}{:<6}" + "{:>12}" * 10 + "  {}").format(*cells))
    print(f"raw results: {out}", file=sys.stderr)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
