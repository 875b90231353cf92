"""Spread and comparison of saved benchmark runs.

    python3 perfbench/stats.py sweep --workload batch --seeds 0-9 \\
        --seconds 30 --out runs/a
    python3 perfbench/stats.py spread runs/a
    python3 perfbench/stats.py compare runs/a runs/b

``sweep`` runs ``run.py`` once per seed and saves each run's standard
output as ``<workload>-<seed>.out``.  ``spread`` prints, per workload
and metric, the median of the saved runs and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  ``compare`` prints the change of each median
from the first directory to the second; a pair of runs of one workload
and seed whose backend or input digest differ is flagged and left out
of the comparison.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_run(text):
    """``(fingerprint, result)`` from one run's standard output."""
    lines = text.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = json.loads(lines[-2].split(" ", 1)[1])
    return fingerprint, result


def load_dir(path):
    """``{(workload, seed): (fingerprint, result)}`` for a run directory."""
    runs = {}
    for name in sorted(glob.glob(os.path.join(path, "*.out"))):
        with open(name) as handle:
            fingerprint, result = parse_run(handle.read())
        runs[fingerprint["workload"], fingerprint["seed"]] = (fingerprint,
                                                              result)
    return runs


def spread(values):
    """``(median, (q3 - q1) / median)``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def _by_metric(runs, keys):
    table = {}
    for key in keys:
        _fp, result = runs[key]
        for metric, entry in result["metrics"].items():
            table.setdefault((key[0], metric, entry["unit"]), []).append(
                entry["value"])
    return table


def cmd_sweep(args):
    lo, _, hi = args.seeds.partition("-")
    os.makedirs(args.out, exist_ok=True)
    for seed in range(int(lo), int(hi or lo) + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        with open(os.path.join(args.out, "%s-%d.out" % (args.workload, seed)),
                  "w") as handle:
            handle.write(out)
        print(out.strip().splitlines()[-1][:200], flush=True)
    return cmd_spread(argparse.Namespace(dir=args.out))


def cmd_spread(args):
    runs = load_dir(args.dir)
    failed = sum(result["failed"] for _fp, result in runs.values())
    print("%-14s %-22s %6s %14s %8s" % ("workload", "metric", "unit",
                                        "median", "IQR/med"))
    for (workload, metric, unit), values in sorted(
            _by_metric(runs, sorted(runs)).items()):
        if len(values) < 2:
            continue
        median, share = spread(values)
        print("%-14s %-22s %6s %14.6g %7.2f%%" % (workload, metric, unit,
                                                  median, 100 * share))
    print("runs: %d, failed ops: %d" % (len(runs), failed))
    return 0


def cmd_compare(args):
    a, b = load_dir(args.a), load_dir(args.b)
    pairs = []
    for key in sorted(set(a) & set(b)):
        fa, fb = a[key][0], b[key][0]
        if (fa["backend"], fa["inputs_digest"]) != (fb["backend"],
                                                     fb["inputs_digest"]):
            print("flagged %s seed %d: backend %s/%s, inputs %s/%s"
                  % (key[0], key[1], fa["backend"], fb["backend"],
                     fa["inputs_digest"][:12], fb["inputs_digest"][:12]))
            continue
        pairs.append(key)
    ta, tb = _by_metric(a, pairs), _by_metric(b, pairs)
    print("%-14s %-22s %14s %14s %8s %8s" % ("workload", "metric", "median A",
                                            "median B", "B/A-1", "IQR A"))
    for key in sorted(ta):
        med_a, share_a = spread(ta[key]) if len(ta[key]) > 1 \
            else (ta[key][0], 0.0)
        med_b = statistics.median(tb[key])
        change = med_b / med_a - 1 if med_a else 0.0
        print("%-14s %-22s %14.6g %14.6g %7.2f%% %7.2f%%"
              % (key[0], key[1], med_a, med_b, 100 * change, 100 * share_a))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep")
    sweep.add_argument("--workload", required=True)
    sweep.add_argument("--seeds", default="0-9", help="inclusive range")
    sweep.add_argument("--seconds", type=float, default=30)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)
    one = sub.add_parser("spread")
    one.add_argument("dir")
    one.set_defaults(func=cmd_spread)
    two = sub.add_parser("compare")
    two.add_argument("a")
    two.add_argument("b")
    two.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
