#!/usr/bin/env python3
"""Run kbench on two checkouts in alternating pairs and write a BENCH_*.json.

Usage, from anywhere:

    python3 scripts/bench_pairs.py --parent DIR --change DIR --parent-rev REV \\
        --pairs plan-mix:701-710 --pairs prov-views:721-725 \\
        --traced plan-mix:711 --traced prov-views:726 \\
        --what "one line on the change" --host "4 vCPU, ..." --out BENCH_x.json

Each ``--pairs W:A-B`` runs ``python3 kbench/run.py --workload W --seed S
--seconds 5 --trace 0`` once in each checkout for every seed S in A..B. Pair
i runs the parent first when i is even and the change first when it is odd.
Several ``--pairs`` of one workload add to one series of pairs; the pair
index restarts with each. Each ``--traced W:S`` runs one such pair, parent
first, with ``--trace 1``. The output keeps,
per workload, every pair's end-to-end metrics (the ``end_to_end`` names of
the change's BENCHMARK.json) with ``correct`` and ``failed``, and per metric
each side's median and quartiles (exclusive method), the change's median over
the parent's, and the pairs the change wins under the metric's ``better``.
Traced pairs keep every metric a run prints. The file is rewritten after every
run, so an interrupted series keeps the pairs it finished.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds, trace):
    cmd = ["python3", "kbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    print(f"[bench_pairs] {os.path.basename(checkout.rstrip('/'))}: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def values(result, names=None):
    m = {k: round(v["value"], 6) for k, v in result["metrics"].items() if names is None or k in names}
    return {**m, "correct": result["correct"], "failed": result["failed"]}


def spread(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="exclusive") if len(xs) > 1 else (xs[0], 0, xs[0])
    return {"median": round(statistics.median(xs), 6), "q1": round(q1, 6), "q3": round(q3, 6), "n": len(xs)}


def summary(pairs, end_to_end):
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [x["parent"][name] for x in pairs]
        c = [x["change"][name] for x in pairs]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        out[name] = {"parent": spread(p), "change": spread(c),
                     "change_over_parent": round(statistics.median(c) / statistics.median(p), 4)
                     if statistics.median(p) else None,
                     "change_better_pairs": wins, "ties": sum(a == b for a, b in zip(p, c))}
    return out


def seeds(spec):
    workload, _, span = spec.partition(":")
    lo, _, hi = span.partition("-")
    return workload, range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--parent-rev", required=True)
    ap.add_argument("--pairs", action="append", default=[])
    ap.add_argument("--traced", action="append", default=[])
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--what", default="")
    ap.add_argument("--host", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    names = {m["name"] for m in end_to_end}
    doc = {"what": args.what,
           "command": f"python3 kbench/run.py --workload <w> --seed <S> --seconds {args.seconds} --trace 0 "
                      "(traced: --trace 1)",
           "parent": args.parent_rev, "host": args.host,
           "order": "pair i runs the parent first when i is even, the change first when i is odd",
           "workloads": {}, "traced": {}}

    def save():
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")

    for spec in args.pairs:
        workload, span = seeds(spec)
        pairs = doc["workloads"].setdefault(workload, {"summary": {}, "pairs": []})["pairs"]
        for i, seed in enumerate(span):
            sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            pair = {side: values(run(getattr(args, side), workload, seed, args.seconds, False), names)
                    for side in sides}
            pairs.append({"seed": seed, "parent": pair["parent"], "change": pair["change"]})
            doc["workloads"][workload]["summary"] = summary(pairs, end_to_end)
            save()
    for spec in args.traced:
        workload, span = seeds(spec)
        for seed in span:
            doc["traced"].setdefault(workload, {})[str(seed)] = {
                side: values(run(getattr(args, side), workload, seed, args.seconds, True))
                for side in ("parent", "change")}
            save()


if __name__ == "__main__":
    main()
