#!/usr/bin/env python3
"""Compares two result sets of the campaign benchmark.

    python3 perfbench/compare.py BASE [NEW]

BASE and NEW are JSON-lines files written by `run.py --out` (or
directories of them). For every (workload, metric) it prints the median,
the quartiles and the spread, (q3 - q1) / median, of each side. With NEW
given it judges every end-to-end metric against its bound in
BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound
  better      NEW's median is better than BASE's by more than the bound
  same        the medians differ by at most the bound
  unresolved  either side's spread is wider than the bound, so a change
              of that size cannot be told from noise -- unless every NEW
              run reads better (or worse) than every BASE run

Per-layer metrics have no bound and are listed without a verdict. A
single set prints its own figures and flags every end-to-end spread
wider than the bound. Exit status 1 when any metric is worse (or, for a
single set, too spread out); 0 otherwise.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_results(path):
    """{(workload, metric): [values]} over every line of path."""
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, name) for name in os.listdir(path)
                       if name.endswith(".jsonl"))
    values = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if not line.strip():
                    continue
                record = json.loads(line)
                if not record["result"].get("correct", False):
                    continue
                for metric, entry in record["result"]["metrics"].items():
                    key = (record["workload"], metric)
                    values.setdefault(key, []).append(entry["value"])
    return values


def summary(values):
    """(median, q1, q3, spread) of a list of runs."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(metric, base, new):
    """Judges NEW against BASE for one end-to-end metric."""
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    b_med, _, _, b_spread = summary(base)
    n_med, _, _, n_spread = summary(new)
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    gain = change if higher else -change
    if b_spread > bound or n_spread > bound:
        if higher:
            all_better = min(new) > max(base)
            all_worse = max(new) < min(base)
        else:
            all_better = max(new) < min(base)
            all_worse = min(new) > max(base)
        if all_better:
            return "better", gain
        if all_worse:
            return "worse", gain
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if gain > bound:
        return "better", gain
    return "same", gain


def fmt(x):
    return "%.6g" % x


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    bounds = load_bench()
    base = load_results(sys.argv[1])
    new = load_results(sys.argv[2]) if len(sys.argv) == 3 else None
    bad = False
    for key in sorted(base if new is None else set(base) | set(new)):
        workload, metric = key
        cols = ["%-20s %-32s" % (workload, metric)]
        for side in (base, new):
            if side is None:
                continue
            if key not in side:
                cols.append("%-44s" % "(absent)")
                continue
            med, q1, q3, spread = summary(side[key])
            cols.append("n=%-3d med %-12s q1 %-12s q3 %-12s spread %.4f" %
                        (len(side[key]), fmt(med), fmt(q1), fmt(q3), spread))
        definition = bounds.get(metric)
        if definition and new is not None and key in base and key in new:
            word, gain = verdict(definition, base[key], new[key])
            cols.append("%-10s %+.2f%% (bound %.0f%%)" %
                        (word, 100 * gain, 100 * definition["bound"]))
            bad = bad or word == "worse"
        elif definition and new is None and key in base:
            spread = summary(base[key])[3]
            if metric != "setup_s" and spread > definition["bound"]:
                cols.append("SPREAD > bound %.2f" % definition["bound"])
                bad = True
        print("  ".join(cols))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
