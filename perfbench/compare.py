#!/usr/bin/env python3
"""Compare benchmark runs, using the bounds in BENCHMARK.json.

    python3 perfbench/compare.py spread DIR
        For each workload and end-to-end metric of the run records in DIR:
        the median, the quartiles, and the spread (third minus first
        quartile, as a share of the median) against the metric's bound.

    python3 perfbench/compare.py ab BASE_DIR CHANGE_DIR
        For each workload and end-to-end metric: both medians and a verdict.
        A metric is flagged when the change's median is worse than the
        base's by more than the metric's bound. Exits 1 if any is flagged.

Run records are the JSON files perfbench writes under .bench_build/results;
traced runs are ignored. Run from the repository root.
"""
import glob
import json
import os
import statistics
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def load_runs(d):
    runs = {}
    for p in sorted(glob.glob(os.path.join(d, "*.json"))):
        with open(p) as f:
            r = json.load(f)
        if r.get("trace") or not r.get("metrics") or r.get("error"):
            continue
        runs.setdefault(r["workload"], []).append(r)
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def spread(d):
    bench = load_bench()
    runs = load_runs(d)
    worst = 0.0
    print(f"{'workload':8} {'metric':22} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for wl, rs in sorted(runs.items()):
        for m in bench["end_to_end"]:
            v = values(rs, m["name"])
            if not v:
                continue
            med = statistics.median(v)
            q1, q3 = quartiles(v)
            sp = (q3 - q1) / med if med else float("inf")
            mark = " <- over bound/3" if sp > m["bound"] / 3 and m["name"] != "setup_s" else ""
            if m["name"] != "setup_s":
                worst = max(worst, sp / m["bound"])
            print(f"{wl:8} {m['name']:22} {len(v):3} {med:12.5g} {q1:12.5g} {q3:12.5g} {sp:7.3f} {m['bound']:6.2f}{mark}")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


def ab(base_dir, change_dir):
    bench = load_bench()
    base, change = load_runs(base_dir), load_runs(change_dir)
    flagged = 0
    print(f"{'workload':8} {'metric':22} {'base':>12} {'change':>12} {'delta':>8} {'bound':>6}  verdict")
    for wl in sorted(set(base) & set(change)):
        for m in bench["end_to_end"]:
            a, b = values(base[wl], m["name"]), values(change[wl], m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = (mb - ma) / ma if ma else 0.0
            worse = delta if m["better"] == "lower" else -delta
            verdict = "WORSE" if worse > m["bound"] else ("better" if worse < -m["bound"] else "same")
            flagged += verdict == "WORSE"
            print(f"{wl:8} {m['name']:22} {ma:12.5g} {mb:12.5g} {delta:+8.1%} {m['bound']:6.2f}  {verdict}")
    print(f"{flagged} metric(s) flagged")
    return 1 if flagged else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "spread":
        return spread(argv[1])
    if len(argv) == 3 and argv[0] == "ab":
        return ab(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
