"""The repository benchmark: one workload, one seed, one closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload measure_py --seed 0 --seconds 30 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, throughput,
p90 op latency and peak RSS of a fixed, seeded op sequence run with
one client and nothing else in the loop.  The sequence is split into
``SLICES`` consecutive slices, each run by a fresh interpreter, so the
set-up samples are spread over the whole run.  ``--trace 1`` runs the
same sequence in one interpreter, each op untraced and traced
(``traced.py``), and reports per-layer self times, work counts and
the tracing overhead; the spans go to
``.perfbench_work/<workload>.spans.jsonl.gz``.

Every op's result is checked after the loop against an oracle that
takes another path (``workloads.py``); for the default seed the
expected results are the committed ``expected.json``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run fingerprint.
See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

#: Seed whose expected results are committed in ``expected.json``.
DEFAULT_SEED = 0

#: Fresh interpreters per untraced run, each running one consecutive
#: slice of the op sequence; ``setup_s`` is the median of their set-up
#: times.  Set-up time switches between a fast and a slow mode for
#: seconds at a time on a shared VM, so samples taken back to back can
#: all land in one mode; spread over the run they mix both.
SLICES = 7

#: Children still running this long after the run started are killed
#: and the run fails.
RUN_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: (metric, unit).  Times are span self times in
#: seconds per op; counts are per op.  A layer a workload does not use
#: reads 0.
PER_LAYER = (
    ("pytrace.run_s", "s"),
    ("pytrace.events", "count"),
    ("pytrace.ns_per_event", "ns"),
    ("shadow.secret_bytes_s", "s"),
    ("shadow.output_bytes_s", "s"),
    ("tracker.finish_s", "s"),
    ("tracker.raw_edges", "count"),
    ("graph.collapsed_edges", "count"),
    ("measure.graph_s", "s"),
    ("lang.compile_s", "s"),
    ("lang.execute_s", "s"),
    ("lang.vm_steps", "count"),
    ("lang.ns_per_step", "ns"),
    ("serialize.dump_s", "s"),
    ("serialize.load_s", "s"),
    ("serialize.bytes", "B"),
    ("batch.map_s", "s"),
    ("batch.worker_busy_s", "s"),
    ("batch.idle_share", "ratio"),
    ("store.put_hit_s", "s"),
    ("store.put_new_s", "s"),
    ("store.dedup_ratio", "ratio"),
    ("store.bytes", "B"),
    ("store.meta_s", "s"),
    ("store.get_s", "s"),
    ("store.open_s", "s"),
    ("combine.add_s", "s"),
    ("combine.kraft_s", "s"),
    ("combine.report_s", "s"),
    ("combine.graph_edges", "count"),
    ("collapse.fold_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("unattributed_s", "s"),
)


#: Per-layer metrics read from the replays' work counts; the other
#: ``*_s`` metrics are span self times, the rest are derived.
COUNTED = frozenset((
    "pytrace.events", "tracker.raw_edges", "graph.collapsed_edges",
    "lang.vm_steps", "serialize.bytes", "batch.worker_busy_s",
    "batch.idle_share", "store.dedup_ratio", "store.bytes",
    "combine.graph_edges"))


def _fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


# ----------------------------------------------------------------------
# Children


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Same string hashing in every run, so set and dict orders inside
    # the program repeat from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(work, mode, start, count, deadline):
    """Run a child over ops ``start .. start + count - 1`` to completion
    or ``deadline`` (a ``perf_counter`` time); returns ``(result dict,
    set-up seconds)``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), work, mode,
         str(start), str(count)],
        stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("%s child did not finish in time" % mode) from None
    words = out.split("\n", 1)[0].split()
    if proc.returncode != 0 or words[:1] != ["ready"]:
        raise RuntimeError("%s child exited with %s" % (mode, proc.returncode))
    # The child reads the same system-wide monotonic clock.
    ready, load_s = float(words[1]), float(words[2])
    setup = ready - t0 - load_s
    with open(os.path.join(work, "result-%s-%d.pkl" % (mode, start)),
              "rb") as handle:
        return pickle.load(handle), setup


def _slices(ops, parts):
    """``(start, count)`` of ``parts`` consecutive, near-equal slices."""
    bounds = [ops * k // parts for k in range(parts + 1)]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def _merge(results):
    """One run's result from its slices' results."""
    run = dict(results[0])
    for key in ("times", "summaries", "errors"):
        run[key] = {}
        for result in results:
            run[key].update(result[key])
    steals = [result["steal"] for result in results]
    run["steal"] = None if None in steals else sum(steals)
    run["peak_rss_kb"] = max(result["peak_rss_kb"] for result in results)
    return run


# ----------------------------------------------------------------------
# Oracle


def expected_summaries(workload, seed, items, digest):
    """Expected per-item summaries: committed for the default seed,
    computed (untimed) through the oracle path otherwise.

    For the default seed, inputs whose digest differs from the
    committed one give ``None``: every op then counts as failed, since
    the committed results no longer check them.
    """
    if seed == DEFAULT_SEED:
        with open(EXPECTED) as handle:
            committed = json.load(handle)["workloads"].get(workload.name)
        if committed is None or committed["inputs_digest"] != digest:
            return None, "mismatch"
        return [tuple(s) for s in committed["summaries"]], "committed"
    return [workload.oracle(item) for item in items], "oracle"


def count_failed(ops, summaries, errors, expected):
    """Of ops ``0 .. ops - 1``, those whose summary differs from the
    oracle's, that raised, or that have no summary."""
    failed = 0
    for i in range(ops):
        summary = summaries.get(i)
        if i in errors or summary is None or expected is None \
                or tuple(summary) != tuple(expected[i % len(expected)]):
            failed += 1
    return failed


# ----------------------------------------------------------------------
# Metrics


def end_to_end(run, setups):
    times = list(run["times"].values())
    return {
        "setup_s": statistics.median(setups),
        "throughput_per_s": len(times) / sum(times),
        "latency_p90_s": p90(times),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }


def per_layer(trace):
    table, walls = trace["table"], trace["walls"]
    ops = sorted(walls)
    n = len(ops)

    def mean_self(name):
        return sum(table[op].get(name, 0.0) for op in ops) / n

    def mean_count(name):
        return sum(trace["counts"][op].get(name, 0) for op in ops) / n

    values = {}
    for metric, _unit in PER_LAYER:
        if metric in COUNTED:
            values[metric] = mean_count(metric)
        elif metric == "collapse.fold_s":  # once per item, outside the op
            folds = [row["collapse.fold"] for row in table.values()
                     if "collapse.fold" in row]
            values[metric] = sum(folds) / len(folds) if folds else 0.0
        elif metric.endswith("_s"):
            values[metric] = mean_self(metric[:-2])
    values["unattributed_s"] = mean_self("unattributed")
    events = values["pytrace.events"]
    values["pytrace.ns_per_event"] = (
        1e9 * values["pytrace.run_s"] / events if events else 0.0)
    steps = values["lang.vm_steps"]
    values["lang.ns_per_step"] = (
        1e9 * values["lang.execute_s"] / steps if steps else 0.0)
    # Each op ran plain and traced in the same interpreter, in
    # alternating order, so host drift falls on both alike.
    plain = [trace["times"][op] for op in ops if op in trace["times"]]
    values["trace.overhead"] = (
        sum(walls[op] for op in ops if op in trace["times"]) / sum(plain)
        - 1.0)
    values["trace.coverage"] = min(
        1.0 - table[op].get("unattributed", 0.0) / walls[op] for op in ops)
    return values, table, walls


def layer_report(table, walls):
    """Human-readable mean self time per span name, with shares."""
    ops = sorted(walls)
    names = {name for op in ops for name in table[op]} - {"collapse.fold"}
    wall = sum(walls.values()) / len(ops)
    lines = ["%-24s %12s %8s" % ("layer", "self s/op", "share")]
    for name in sorted(names, key=lambda nm: -sum(
            table[op].get(nm, 0.0) for op in ops)):
        value = sum(table[op].get(name, 0.0) for op in ops) / len(ops)
        lines.append("%-24s %12.6f %7.1f%%" % (name, value,
                                               100.0 * value / wall))
    lines.append("%-24s %12.6f" % ("op wall", wall))
    folds = [row["collapse.fold"] for row in table.values()
             if "collapse.fold" in row]
    if folds:
        lines.append("%-24s %12.6f  (plain fold, outside the op)"
                     % ("collapse.fold", sum(folds) / len(folds)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Entry points


def _prepare():
    """Put the checkout's ``src`` first on the path; False if absent."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    return True


def measure(args):
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    workload = workloads.WORKLOADS[args.workload]
    items = workload.generate(args.seed)
    digest = workloads.inputs_digest(items)
    ops = workloads.op_count(workload, args.seconds)
    base = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(base, "%s-%d" % (workload.name, os.getpid()))
    spans = os.path.join(base, "%s.spans.jsonl.gz" % workload.name)
    os.makedirs(work)
    try:
        with open(os.path.join(work, "inputs.pkl"), "wb") as handle:
            pickle.dump({"workload": workload.name, "items": items}, handle)
        if args.trace:
            run, setup = _spawn(work, "trace", 0, ops, deadline)
            setups = [setup]
            os.replace(os.path.join(work, "spans.jsonl.gz"), spans)
        else:
            slices = [_spawn(work, "run", start, count, deadline)
                      for start, count in _slices(ops, SLICES)]
            run = _merge([result for result, _ in slices])
            setups = [setup for _, setup in slices]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:  # holds spans, or another run is using it
            pass

    expected, source = expected_summaries(workload, args.seed, items, digest)
    if expected is None:
        print("inputs differ from those of expected.json for seed %d: "
              "every op counts as failed" % DEFAULT_SEED, file=sys.stderr)
    failed = count_failed(ops, run["summaries"], run["errors"], expected)
    attempted = ops
    errors = dict(run["errors"])
    if args.trace:
        failed += count_failed(ops, run["traced_summaries"],
                               run["traced_errors"], expected)
        attempted += ops
        errors.update({"traced-%d" % k: v
                       for k, v in run["traced_errors"].items()})
    for key in sorted(errors, key=str)[:3]:
        print("op %s raised: %s" % (key, errors[key]), file=sys.stderr)

    fingerprint = {
        "workload": workload.name, "seed": args.seed, "ops": ops,
        "latency_samples": len(run["times"]), "items": len(items),
        "inputs_digest": digest, "backend": run["backend"],
        "native_available": run["native_available"],
        "python": run["python"], "nproc": run["nproc"],
        "steal_ticks": run["steal"], "oracle": source,
        "setup_samples": len(setups), "trace": int(args.trace),
    }
    if args.trace:
        values, table, walls = per_layer(run)
        units = dict(PER_LAYER)
        print(layer_report(table, walls))
        fingerprint["spans"] = os.path.relpath(spans, ROOT)
    else:
        values = end_to_end(run, setups)
        units = dict(END_TO_END)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def write_expected():
    """Regenerate ``expected.json`` for the default seed via the oracle."""
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        items = workload.generate(DEFAULT_SEED)
        doc["workloads"][name] = {
            "inputs_digest": workloads.inputs_digest(items),
            "summaries": [list(workload.oracle(item)) for item in items],
        }
    with open(EXPECTED, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected.json and exit")
    args = parser.parse_args(argv)
    if not _prepare():
        return _fail("no repro package under %s: run from a checkout of "
                     "the repository" % SRC)
    if args.write_expected:
        return write_expected()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return measure(args)
    except (RuntimeError, OSError) as error:
        return _fail(str(error))


if __name__ == "__main__":
    sys.exit(main())
