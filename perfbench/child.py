"""One fresh interpreter running one slice of a workload's op sequence;
started by ``run.py``.

Usage: ``python3 child.py WORK MODE START COUNT`` where ``WORK`` holds
``inputs.pkl``, ``MODE`` is ``run`` or ``trace``, and the child runs
ops ``START`` to ``START + COUNT - 1`` of the sequence.

The child loads its inputs, imports ``repro``, runs the first op
untimed as a warm-up, and prints ``ready <perf_counter> <load
seconds>`` so the parent can time set-up without the input load.
``run`` then times its ops with nothing else in the loop.  ``trace``
runs each op twice, plain (timed as in ``run``) and traced
(``traced.py``), in alternating order, so the tracing overhead is
measured in one interpreter; at the end it writes the spans to
``WORK/spans.jsonl.gz``.  Results
go to ``WORK/result-<MODE>-<START>.pkl``.
"""

from __future__ import annotations

import gzip
import json
import os
import pickle
import shutil
import sys
import time
import traceback


def _steal_ticks():
    """CPU-steal ticks summed over all CPUs (``/proc/stat``), or None."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _discard(root):
    """Delete an op's store right after the op, outside its timing.

    On a VM whose ext4 root is mounted with ``discard``, deleting
    thousands of files at once slows file creation for tens of seconds
    afterwards; deleting each op's few dozen files as soon as it
    finishes keeps that cost small and even.
    """
    shutil.rmtree(root, ignore_errors=True)


class _Plain:
    """The untraced op: per-op wall times, summaries and errors."""

    def __init__(self, workload, work, tag):
        import workloads
        self.workload = workload
        self.store = workloads.needs_store(workload)
        self.work = work
        self.tag = tag
        self.times = {}
        self.summaries = {}
        self.errors = {}

    def __call__(self, i, item):
        import workloads
        workload = self.workload
        root = workloads.store_root(self.work, self.tag, i)
        now = time.perf_counter
        t0 = now()
        try:
            result = workload.op(item, root) if self.store \
                else workload.op(item)
        except Exception:  # counted as a failed op
            self.times[i] = now() - t0
            self.errors[i] = traceback.format_exc()
            return
        self.times[i] = now() - t0
        # Untimed, and keeps only a small tuple: nothing grows across ops.
        try:
            self.summaries[i] = workload.summary(result)
        except Exception:
            self.errors[i] = traceback.format_exc()
        del result
        if self.store:
            _discard(root)


def _run(workload, items, start, count, work):
    """The timed closed loop: one op at a time, per-op wall times."""
    plain = _Plain(workload, work, "run")
    for i in range(start, start + count):
        plain(i, items[i % len(items)])
    return {"times": plain.times, "summaries": plain.summaries,
            "errors": plain.errors}


def _trace(workload, items, start, count, work):
    """Each op plain and traced, alternating which goes first."""
    import traced
    import workloads
    rec = traced.Recorder()
    plain = _Plain(workload, work, "plain")
    summaries = {}
    counts = {}
    errors = {}
    table = {}
    walls = {}
    for i in range(start, start + count):
        item = items[i % len(items)]
        if i % 2:
            plain(i, item)
        rec.op = i
        root = workloads.store_root(work, "trace", i)
        try:
            summaries[i], counts[i] = traced.replay(
                workload, rec, item, root, first=i < len(items))
        except Exception:
            errors[i] = traceback.format_exc()
            counts[i] = {}
        if workloads.needs_store(workload):
            _discard(root)
        # This op's layer table, then its spans into compact storage.
        op_table, op_walls = traced.layer_table(rec.pack())
        table.update(op_table)
        walls.update(op_walls)
        if not i % 2:
            plain(i, item)
    with gzip.open(os.path.join(work, "spans.jsonl.gz"), "wt",
                   compresslevel=1) as handle:
        for sid, name, t0, t1, parent, op in rec.packed():
            handle.write('{"id": %d, "name": "%s", "start": %r, "end": %r, '
                         '"parent": %s, "op": %d}\n'
                         % (sid, name, t0, t1, json.dumps(parent), op))
    return {"times": plain.times, "summaries": plain.summaries,
            "errors": plain.errors, "traced_summaries": summaries,
            "traced_errors": errors, "counts": counts, "table": table,
            "walls": walls}


def main(argv):
    work, mode, start, count = argv[1], argv[2], int(argv[3]), int(argv[4])
    t0 = time.perf_counter()
    with open(os.path.join(work, "inputs.pkl"), "rb") as handle:
        job = pickle.load(handle)
    load_s = time.perf_counter() - t0
    import repro  # noqa: F401  (set-up includes the package import)
    import workloads
    workload = workloads.WORKLOADS[job["workload"]]
    items = job["items"]
    store = workloads.needs_store(workload)
    root = workloads.store_root(work, "warm-" + mode, start)
    if store:
        workload.op(items[0], root)
    else:
        workload.op(items[0])
    print("ready %.9f %.9f" % (time.perf_counter(), load_s), flush=True)
    if store:
        _discard(root)
    steal0 = _steal_ticks()
    if mode == "run":
        out = _run(workload, items, start, count, work)
    else:
        out = _trace(workload, items, start, count, work)
    steal1 = _steal_ticks()
    import resource
    from repro.shadow import resolve_backend
    try:
        from repro.shadow import native_available
        native = native_available()
    except ImportError:  # before the native backend existed
        native = None
    out.update(
        steal=None if steal0 is None or steal1 is None else steal1 - steal0,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        backend=resolve_backend(None), native_available=native,
        python=sys.version.split()[0], nproc=os.cpu_count())
    with open(os.path.join(work, "result-%s-%d.pkl" % (mode, start)),
              "wb") as handle:
        pickle.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
