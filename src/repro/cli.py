"""Command-line interface: ``python -m repro <command> ...``.

The tool workflow from the paper, on FlowLang programs:

* ``measure`` — run once under full instrumentation, print the flow
  bound and minimum cut, optionally save the cut as a JSON policy or
  the graph as DOT;
* ``check``  — §6.2 tainting-based check of a run against a policy;
* ``lockstep`` — §6.3 two-copy output-comparison check;
* ``static`` — the §10.2 all-static bound, given per-loop trip counts;
* ``disasm`` — show the compiled bytecode;
* ``batch`` — measure one program over many secrets across worker
  processes (§3.2 combined bound; ``--jobs N``; ``--store DIR`` appends
  each run to a content-addressed shard corpus and bounds the whole
  corpus);
* ``combine`` — recombine an existing shard store into one corpus
  bound by tree reduction, with the incremental-Kraft anytime trail;
* ``obs`` — inspect a ``--telemetry-dir`` directory while (or after) a
  run writes it: ``obs tail`` renders the latest snapshot as the
  metrics table, ``obs check`` lints the directory (OpenMetrics rules,
  counter monotonicity, event schema);
* ``serve`` — run the fault-tolerant measurement service: an HTTP/JSON
  frontend over a crash-safe persistent job queue with admission
  control and graceful drain (see ``docs/service.md``).

Secret/public inputs come from ``--secret``/``--public`` (text),
``--secret-hex`` (hex bytes), or ``--secret-file``.

Signals: every command exits 130 on SIGINT and 143 on SIGTERM after
tearing down worker pools and flushing any ``--telemetry-dir`` /
``--trace`` sinks (no raw traceback); ``serve`` instead treats both
signals as the graceful-drain request and exits 0 after a clean drain.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from . import obs
from .core.modes import MULTI_RUN_COLLAPSE_MODES
from .core.policy import CutPolicy
from .errors import PolicyViolation, ReproError


def _read_program(path):
    with open(path) as handle:
        return handle.read()


def _input_bytes(args, prefix):
    text = getattr(args, prefix, None)
    hex_text = getattr(args, prefix + "_hex", None)
    path = getattr(args, prefix + "_file", None)
    chosen = [v for v in (text, hex_text, path) if v is not None]
    if len(chosen) > 1:
        raise SystemExit("choose one of --%s / --%s-hex / --%s-file"
                         % (prefix, prefix, prefix))
    if text is not None:
        return text.encode()
    if hex_text is not None:
        return bytes.fromhex(hex_text)
    if path is not None:
        with open(path, "rb") as handle:
            return handle.read()
    return b""


def _add_input_flags(parser, prefix, help_noun):
    parser.add_argument("--%s" % prefix, help="%s as literal text"
                        % help_noun)
    parser.add_argument("--%s-hex" % prefix, dest="%s_hex" % prefix,
                        help="%s as hex bytes" % help_noun)
    parser.add_argument("--%s-file" % prefix, dest="%s_file" % prefix,
                        help="%s read from a file" % help_noun)


def _add_backend_flag(parser):
    parser.add_argument("--backend", default=None,
                        choices=["auto", "reference", "fast"],
                        help="execution backend: bit-identical results, "
                             "different speed (default: auto, or the "
                             "REPRO_BACKEND environment variable; see "
                             "docs/backends.md)")


def _positive(convert):
    """argparse type: ``convert`` the text, then insist the value is > 0."""
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not value > 0:
            raise argparse.ArgumentTypeError(
                "must be a positive %s, got %r" % (convert.__name__, text))
        return value
    return parse


def _add_budget_flags(parser):
    parser.add_argument("--max-steps", dest="max_steps",
                        type=_positive(int),
                        default=None, metavar="N",
                        help="abort a run after N VM steps")
    parser.add_argument("--deadline", type=_positive(float), default=None,
                        metavar="SECONDS",
                        help="abort a run past this wall-clock budget, "
                             "enforced in the VM step loop (VMTimeout)")


def _add_metrics_flags(parser):
    parser.add_argument("--metrics", nargs="?", const="table",
                        choices=["table", "json"], metavar="FORMAT",
                        help="record pipeline metrics and print them "
                             "(table or json; see docs/observability.md)")
    parser.add_argument("--metrics-file", metavar="FILE",
                        help="write metrics there instead of stderr")
    parser.add_argument("--trace", metavar="FILE",
                        help="record hierarchical spans and write them "
                             "there: Chrome trace-event JSON (open in "
                             "Perfetto), or JSONL when FILE ends in "
                             ".jsonl (see docs/observability.md)")


def _add_telemetry_flags(parser):
    parser.add_argument("--telemetry-dir", dest="telemetry_dir",
                        metavar="DIR",
                        help="continuously export metrics, resource "
                             "samples, and structured events to DIR "
                             "(telemetry-v1 layout: JSONL time series + "
                             "OpenMetrics text; watch it live with "
                             "'repro obs tail DIR'; see "
                             "docs/observability.md)")
    parser.add_argument("--telemetry-interval", dest="telemetry_interval",
                        type=float, default=1.0, metavar="SECONDS",
                        help="seconds between telemetry flushes "
                             "(default 1.0)")


def _emit_metrics(args):
    """Render and deliver the metrics snapshot; returns success."""
    snapshot = obs.get_metrics().snapshot()
    if args.metrics == "json":
        text = obs.to_json(snapshot)
    else:
        text = obs.to_table(snapshot)
    if args.metrics_file:
        try:
            with open(args.metrics_file, "w") as handle:
                handle.write(text + "\n")
        except OSError as error:
            print("error: cannot write metrics file: %s" % error,
                  file=sys.stderr)
            return False
    else:
        print(text, file=sys.stderr)
    return True


def _emit_trace(args, tracer):
    """Write the recorded spans to ``--trace FILE``; returns success."""
    spans = tracer.snapshot()
    try:
        if args.trace.endswith(".jsonl"):
            obs.write_jsonl(spans, args.trace)
        else:
            obs.write_chrome_trace(spans, args.trace,
                                   parent_pid=tracer.pid)
    except OSError as error:
        print("error: cannot write trace file: %s" % error,
              file=sys.stderr)
        return False
    return True


def cmd_measure(args):
    if args.online and args.collapse == "none":
        print("error: --online collapses during tracing; "
              "--collapse none is not available", file=sys.stderr)
        return 2
    from .lang.runner import measure
    source = _read_program(args.program)
    result = measure(source, secret_input=_input_bytes(args, "secret"),
                     public_input=_input_bytes(args, "public"),
                     collapse=args.collapse, filename=args.program,
                     online=args.online, max_steps=args.max_steps,
                     deadline_seconds=args.deadline, backend=args.backend)
    if args.json:
        cut = CutPolicy.from_report(result.report)
        print(json.dumps({
            "bits": result.bits,
            "outputs": [o for o in result.outputs],
            "cut": cut.to_dict(),
            "warnings": result.report.warnings,
        }, indent=2))
    else:
        print(result.report.describe())
        if result.output_bytes:
            print("program output: %r" % bytes(result.output_bytes))
    if args.save_policy:
        policy = CutPolicy.from_report(result.report)
        with open(args.save_policy, "w") as handle:
            json.dump(policy.to_dict(), handle, indent=2)
        print("policy written to %s" % args.save_policy)
    if args.dot:
        from .graph.dot import write_dot
        write_dot(args.dot, result.report.graph, result.report.mincut,
                  title="%s: %d bits" % (args.program, result.bits))
        print("graph written to %s" % args.dot)
    return 0


def _load_policy(path):
    with open(path) as handle:
        return CutPolicy.from_dict(json.load(handle))


def cmd_check(args):
    from .lang.runner import check
    source = _read_program(args.program)
    result = check(source, _load_policy(args.policy),
                   secret_input=_input_bytes(args, "secret"),
                   public_input=_input_bytes(args, "public"),
                   filename=args.program)
    print(repr(result))
    try:
        result.enforce()
    except PolicyViolation as violation:
        print("VIOLATION: %s" % violation)
        return 1
    print("PASS: %d bits revealed within the %d-bit budget"
          % (result.revealed_bits, result.policy.max_bits))
    return 0


def cmd_lockstep(args):
    from .lang.runner import lockstep
    source = _read_program(args.program)
    result = lockstep(source, _load_policy(args.policy),
                      real_secret=_input_bytes(args, "secret"),
                      dummy_secret=_input_bytes(args, "dummy"),
                      public_input=_input_bytes(args, "public"),
                      filename=args.program)
    print(repr(result))
    try:
        result.enforce()
    except PolicyViolation as violation:
        print("VIOLATION: %s" % violation)
        return 1
    print("PASS: outputs agree; %d bits forwarded at the cut"
          % result.bits_forwarded)
    return 0


def cmd_static(args):
    from .infer.staticflow import StaticFlowAnalysis
    from .lang.checker import check_program
    from .lang.parser import parse
    program = check_program(parse(_read_program(args.program),
                                  args.program))
    analysis = StaticFlowAnalysis(program, function=args.function)
    bounds = {}
    for item in args.bound or []:
        line, _, count = item.partition("=")
        bounds[int(line)] = int(count)
    if args.formula:
        print(analysis.formula())
    print("loops at lines: %s" % analysis.loop_lines)
    print("static bound: %d bits (default loop bound %d)"
          % (analysis.bound(bounds, args.default_bound),
             args.default_bound))
    return 0


def cmd_disasm(args):
    from .lang.runner import compile_source
    compiled = compile_source(_read_program(args.program), args.program)
    print(compiled.disassemble())
    return 0


def _batch_secrets(args):
    """All --secret/--secret-hex/--secret-file values, in flag-group order."""
    secrets = [text.encode() for text in args.secret or []]
    secrets.extend(bytes.fromhex(hex_text)
                   for hex_text in args.secret_hex or [])
    for path in args.secret_file or []:
        with open(path, "rb") as handle:
            secrets.append(handle.read())
    return secrets


def cmd_batch(args):
    secrets = _batch_secrets(args)
    if not secrets:
        print("error: batch needs at least one --secret / --secret-hex / "
              "--secret-file", file=sys.stderr)
        return 2
    from .batch import measure_program_runs
    source = _read_program(args.program)
    result = measure_program_runs(
        source, secrets, public_input=_input_bytes(args, "public"),
        collapse=args.collapse, jobs=args.jobs, filename=args.program,
        max_steps=args.max_steps, deadline_seconds=args.deadline,
        timeout=args.timeout, retries=args.retries,
        on_error=args.on_error, warm_start=not args.no_warm_start,
        backend=args.backend, store=args.store)
    report = result.report
    corpus = None
    if args.store:
        from .store import ShardStore
        with ShardStore(args.store, create=False) as store:
            corpus = store.stats()
    if args.json:
        cut = CutPolicy.from_report(report)
        payload = {
            "runs": result.runs,
            "attempted": result.attempted,
            "jobs": result.jobs,
            "partial": result.partial,
            "combined_bits": result.bits,
            "per_run_bits": result.per_run_bits,
            "per_run_kraft_sum": float(result.kraft_sum),
            "per_run_sound": result.per_run_sound,
            "failures": [failure.to_dict(traceback=False)
                         for failure in result.failures],
            "cut": cut.to_dict(),
            "warnings": report.warnings,
        }
        if corpus is not None:
            payload["store"] = corpus
        print(json.dumps(payload, indent=2))
    else:
        print("%d runs across %d job slot(s)" % (result.runs, result.jobs))
        if corpus is not None:
            print("store corpus: %d runs, %d distinct shards; the "
                  "combined bound covers the whole corpus"
                  % (corpus["runs"], corpus["distinct"]))
        if result.partial:
            print("PARTIAL: %d of %d runs failed and are excluded from "
                  "the bound:" % (len(result.failures), result.attempted))
            for failure in result.failures:
                print("  run %d: %s: %s" % (failure.index,
                                            failure.error_type,
                                            failure.error))
        print("per-run bounds: %s bits (Kraft sum %.4f, %s)"
              % (result.per_run_bits, float(result.kraft_sum),
                 "sound alone" if result.per_run_sound
                 else "NOT jointly sound — combined bound required"))
        print(report.describe())
    # Exit 1 on a partial result: scripting must notice that the bound
    # does not cover every requested run.
    return 1 if result.partial else 0


def cmd_combine(args):
    from .batch.runs import combine_store_jobs
    from .store import ShardStore
    with ShardStore(args.store, create=False) as store:
        if len(store) == 0:
            print("error: store %s has an empty corpus (no manifest "
                  "entries)" % args.store, file=sys.stderr)
            return 2
        result = combine_store_jobs(
            store, context_sensitive=(args.collapse == "context"),
            jobs=args.jobs, fanin=args.fanin, timeout=args.timeout,
            retries=args.retries, on_error=args.on_error)
    report = result.report
    if args.json:
        cut = CutPolicy.from_report(report)
        print(json.dumps({
            "runs": result.runs,
            "attempted": result.attempted,
            "distinct": result.distinct,
            "partial": result.partial,
            "combined_bits": result.bits,
            "anytime_bits": result.anytime,
            "tree_levels": result.levels,
            "store": store.stats(),
            "failures": [failure.to_dict(traceback=False)
                         for failure in result.failures],
            "cut": cut.to_dict(),
            "warnings": report.warnings,
        }, indent=2))
    else:
        print("corpus: %d runs, %d distinct shards"
              % (result.attempted, result.distinct))
        print("anytime upper bound: %s bits"
              % " >= ".join(str(b) for b in result.anytime))
        if result.partial:
            print("PARTIAL: %d of %d runs failed and are excluded from "
                  "the bound:" % (result.attempted - result.runs,
                                  result.attempted))
            for failure in result.failures:
                print("  shard %d: %s: %s" % (failure.index,
                                              failure.error_type,
                                              failure.error))
        print(report.describe())
    return 1 if result.partial else 0


def cmd_obs_tail(args):
    try:
        doc = obs.read_latest(args.dir)
    except (OSError, ValueError) as error:
        print("error: cannot read telemetry snapshot: %s" % error,
              file=sys.stderr)
        return 2
    print("telemetry snapshot seq %s (%s)"
          % (doc.get("seq"), doc.get("format")))
    samples = doc.get("resources") or {}
    for worker in sorted(samples, key=lambda w: (w != "parent", w)):
        record = samples[worker]
        print("  %-8s rss %.1f MiB, cpu %.2fs, %d fds, live graph "
              "%d nodes / %d edges"
              % (worker, record.get("rss_bytes", 0) / (1024.0 * 1024.0),
                 record.get("cpu_seconds", 0),
                 record.get("open_fds", 0),
                 record.get("graph_nodes_live", 0),
                 record.get("graph_edges_live", 0)))
    print(obs.to_table(doc.get("metrics", {})))
    return 0


def cmd_obs_check(args):
    problems = obs.check_dir(args.dir)
    if problems:
        for problem in problems:
            print("FAIL: %s" % problem, file=sys.stderr)
        print("%s: %d problem(s)" % (args.dir, len(problems)),
              file=sys.stderr)
        return 1
    print("ok: %s passes the telemetry-v1 checks" % args.dir)
    return 0


def cmd_serve(args):
    from .serve import MeasurementDaemon, ServeConfig
    config = ServeConfig(
        args.state_dir, host=args.host, port=args.port, jobs=args.jobs,
        queue_depth=args.queue_depth, tenant_inflight=args.max_inflight,
        shed_runs=args.shed_runs, timeout=args.timeout,
        retries=args.retries, telemetry=not args.no_telemetry,
        telemetry_interval=args.telemetry_interval)
    return MeasurementDaemon(config).run()


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantitative information flow as network flow "
                    "capacity (PLDI 2008 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="measure one execution's flow")
    p.add_argument("program", help="FlowLang source file")
    _add_input_flags(p, "secret", "secret input")
    _add_input_flags(p, "public", "public input")
    p.add_argument("--collapse", default="context",
                   choices=["none", "context", "location"])
    p.add_argument("--online", action="store_true",
                   help="collapse the graph while tracing (constant-size "
                        "live graph; not valid with --collapse none)")
    _add_backend_flag(p)
    _add_budget_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--save-policy", metavar="FILE")
    p.add_argument("--dot", metavar="FILE",
                   help="write the (collapsed) graph + cut as Graphviz")
    _add_metrics_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("check", help="taint-check a run against a policy")
    p.add_argument("program")
    p.add_argument("--policy", required=True)
    _add_input_flags(p, "secret", "secret input")
    _add_input_flags(p, "public", "public input")
    _add_metrics_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lockstep",
                       help="output-comparison check (two copies)")
    p.add_argument("program")
    p.add_argument("--policy", required=True)
    _add_input_flags(p, "secret", "real secret input")
    _add_input_flags(p, "dummy", "dummy secret input")
    _add_input_flags(p, "public", "public input")
    _add_metrics_flags(p)
    p.set_defaults(func=cmd_lockstep)

    p = sub.add_parser("static", help="all-static bound (§10.2 subset)")
    p.add_argument("program")
    p.add_argument("--function", default="main")
    p.add_argument("--bound", action="append", metavar="LINE=N",
                   help="loop trip-count bound (repeatable)")
    p.add_argument("--default-bound", type=int, default=1)
    p.add_argument("--formula", action="store_true",
                   help="print the symbolic edge list")
    _add_metrics_flags(p)
    p.set_defaults(func=cmd_static)

    p = sub.add_parser("disasm", help="show compiled bytecode")
    p.add_argument("program")
    _add_metrics_flags(p)
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("batch",
                       help="measure many runs in parallel (§3.2 "
                            "combined bound)")
    p.add_argument("program", help="FlowLang source file")
    p.add_argument("--secret", action="append", metavar="TEXT",
                   help="one run's secret input as literal text "
                        "(repeatable)")
    p.add_argument("--secret-hex", dest="secret_hex", action="append",
                   metavar="HEX",
                   help="one run's secret input as hex bytes (repeatable)")
    p.add_argument("--secret-file", dest="secret_file", action="append",
                   metavar="FILE",
                   help="one run's secret input from a file (repeatable)")
    _add_input_flags(p, "public", "public input (shared by all runs)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes (default 1: in-process, "
                        "bit-identical results either way)")
    p.add_argument("--collapse", default="context",
                   choices=MULTI_RUN_COLLAPSE_MODES)
    _add_backend_flag(p)
    p.add_argument("--no-warm-start", dest="no_warm_start",
                   action="store_true",
                   help="combine the runs' graphs through the serial "
                        "one-shot reference (measure_runs) instead of the "
                        "streaming root fold (same bound either way; no "
                        "effect with --store)")
    _add_budget_flags(p)
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-job wall-clock timeout; a hung job's worker "
                        "is terminated and the pool resurrected")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry budget for transient job failures (broken "
                        "pool, timeout, transport); exhausted payloads "
                        "are quarantined")
    p.add_argument("--on-error", dest="on_error", default="raise",
                   choices=["raise", "collect"],
                   help="raise: first failure aborts the batch (default); "
                        "collect: finish the surviving runs and report a "
                        "partial bound (exit status 1)")
    p.add_argument("--store", metavar="DIR",
                   help="append each run's collapsed shard to a "
                        "content-addressed store (created if missing) "
                        "and bound the store's whole corpus by tree "
                        "reduction instead of the parent-side fold")
    p.add_argument("--json", action="store_true")
    _add_metrics_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("combine",
                       help="combine a shard-store corpus into one "
                            "bound (tree reduction + anytime Kraft "
                            "trail)")
    p.add_argument("--store", required=True, metavar="DIR",
                   help="shard store directory (see repro batch --store)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes for the reduction levels "
                        "(default 1: in-process, bit-identical results "
                        "either way)")
    p.add_argument("--fanin", type=int, default=None, metavar="K",
                   help="shards merged per reduction node (default: "
                        "corpus size / jobs, i.e. one level plus the "
                        "root fold)")
    p.add_argument("--collapse", default="context",
                   choices=MULTI_RUN_COLLAPSE_MODES)
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-merge-job wall-clock timeout")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry budget for transient merge-job failures")
    p.add_argument("--on-error", dest="on_error", default="raise",
                   choices=["raise", "collect"],
                   help="raise: first failure aborts (default); collect: "
                        "drop failed subtrees from the graph and the "
                        "Kraft account, report a partial bound (exit "
                        "status 1)")
    p.add_argument("--json", action="store_true")
    _add_metrics_flags(p)
    _add_telemetry_flags(p)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("obs",
                       help="inspect a --telemetry-dir directory")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    pt = obs_sub.add_parser("tail",
                            help="render the latest telemetry snapshot "
                                 "as the metrics table")
    pt.add_argument("dir", help="telemetry directory "
                                "(a run's --telemetry-dir)")
    pt.set_defaults(func=cmd_obs_tail)
    pc = obs_sub.add_parser("check",
                            help="lint a telemetry directory: OpenMetrics "
                                 "rules, counter monotonicity, event "
                                 "schema")
    pc.add_argument("dir", help="telemetry directory "
                                "(a run's --telemetry-dir)")
    pc.set_defaults(func=cmd_obs_check)

    p = sub.add_parser("serve",
                       help="run the measurement service: HTTP/JSON "
                            "frontend, crash-safe job queue, admission "
                            "control (see docs/service.md)")
    p.add_argument("--dir", dest="state_dir", required=True,
                   metavar="DIR",
                   help="service state directory: queue journal, "
                        "per-job checkpoints, endpoint.json, telemetry "
                        "(created if missing; survives restarts)")
    p.add_argument("--host", default="127.0.0.1", metavar="ADDR",
                   help="listen address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8675, metavar="N",
                   help="listen port (default 8675; 0 picks an "
                        "ephemeral port, recorded in DIR/endpoint.json)")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes per measurement job "
                        "(default 1: in-process, bit-identical results "
                        "either way)")
    p.add_argument("--queue-depth", dest="queue_depth", type=int,
                   default=16, metavar="N",
                   help="maximum accepted-but-not-running jobs; beyond "
                        "it submissions get 429 + Retry-After")
    p.add_argument("--max-inflight", dest="max_inflight", type=int,
                   default=4, metavar="N",
                   help="per-tenant cap on live (queued + running) "
                        "jobs (429 tenant_cap beyond it)")
    p.add_argument("--shed-runs", dest="shed_runs", type=int,
                   default=64, metavar="N",
                   help="with the queue hot, shed submissions asking "
                        "for more than N runs (429 load_shed)")
    p.add_argument("--timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-run wall-clock timeout inside a job; a "
                        "hung worker is terminated and the run "
                        "recorded as failed (the job completes "
                        "partial)")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry budget for transient run failures")
    p.add_argument("--no-telemetry", dest="no_telemetry",
                   action="store_true",
                   help="do not write the DIR/telemetry directory")
    p.add_argument("--telemetry-interval", dest="telemetry_interval",
                   type=float, default=1.0, metavar="SECONDS",
                   help="seconds between telemetry flushes "
                        "(default 1.0)")
    p.set_defaults(func=cmd_serve)
    return parser


class _Signalled(BaseException):
    """SIGTERM, re-raised in the main thread so ``finally`` blocks run.

    Derives from ``BaseException`` (like ``KeyboardInterrupt``) so
    worker pools are torn down by the engine's interrupt path rather
    than swallowed by broad ``except Exception`` handlers.
    """

    def __init__(self, signum):
        super().__init__(signum)
        self.signum = signum


def _install_signal_exits():
    """Make SIGTERM raise, so the CLI flushes its sinks and exits 143
    instead of dying mid-write (SIGINT already raises
    ``KeyboardInterrupt``).  ``serve`` overrides both with its
    graceful-drain handlers."""
    if threading.current_thread() is not threading.main_thread():
        return

    def _raise(signum, frame):
        raise _Signalled(signum)

    signal.signal(signal.SIGTERM, _raise)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _install_signal_exits()
    record_metrics = getattr(args, "metrics", None) is not None
    trace_file = getattr(args, "trace", None)
    telemetry_dir = getattr(args, "telemetry_dir", None)
    # --telemetry-dir implies a live registry, a live event log, and a
    # live tracer (so exported events carry span ids) even when the
    # corresponding print-at-exit flags are absent.
    if record_metrics or telemetry_dir:
        obs.enable()
    tracer = None
    if trace_file or telemetry_dir:
        tracer = obs.enable_tracing()
    if telemetry_dir:
        obs.enable_events()
    exporter = None
    status = 0
    try:
        if telemetry_dir:
            try:
                exporter = obs.TelemetryExporter(
                    telemetry_dir,
                    interval=getattr(args, "telemetry_interval", 1.0))
            except OSError as error:
                print("error: cannot write telemetry directory: %s"
                      % error, file=sys.stderr)
                return 2
            obs.set_exporter(exporter)
            exporter.start()
        span = obs.get_tracer().span("cli.command", command=args.command)
        with span:
            status = args.func(args)
            span.set(status=status)
    except ReproError as error:
        print("error: %s" % error, file=sys.stderr)
        status = 2
    except KeyboardInterrupt:
        # Pools are already torn down (the engine's BaseException
        # path); flush the sinks below and exit with the conventional
        # 128 + SIGINT code.
        print("interrupted (SIGINT): flushing sinks and exiting 130",
              file=sys.stderr)
        status = 130
    except _Signalled:
        print("terminated (SIGTERM): flushing sinks and exiting 143",
              file=sys.stderr)
        status = 143
    finally:
        emitted = True
        if exporter is not None:
            obs.set_exporter(None)
            flush_error = exporter.stop()
            if flush_error is not None:
                print("error: cannot write telemetry directory: %s"
                      % flush_error, file=sys.stderr)
                emitted = False
        if telemetry_dir:
            obs.disable_events()
        if record_metrics:
            emitted = _emit_metrics(args) and emitted
        if record_metrics or telemetry_dir:
            obs.disable()
        if tracer is not None:
            obs.disable_tracing()
            if trace_file:
                emitted = _emit_trace(args, tracer) and emitted
    if not emitted and status == 0:
        status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
