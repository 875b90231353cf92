"""Continuous telemetry export: periodic JSONL + OpenMetrics snapshots.

A :class:`TelemetryExporter` turns the in-memory observability layer
(metrics registry, resource sampler, event log) into an on-disk
time-series a human or a Prometheus scraper can watch *while the
measurement is still running*.  A background daemon thread flushes at
a configurable interval into a ``telemetry-v1`` directory:

``format``
    a one-line marker file naming the layout version;
``metrics.jsonl``
    one record per flush: ``{"ts", "seq", "metrics"}`` where
    ``metrics`` is the full registry snapshot with counters, timers,
    and histogram buckets made *monotone across registry resets* by a
    publish ledger (see :class:`_Ledger`);
``metrics.prom``
    the most recent snapshot rendered as OpenMetrics exposition text,
    rewritten atomically each flush so a scrape never reads a torn
    file;
``resources.jsonl``
    the parent process's resource samples, one per flush;
``events.jsonl``
    structured event records drained from the event log;
``workers/<pid>/resources.jsonl``
    one file per batch worker that shipped a resource sample home;
``snapshot-<seq>.json`` + ``latest``
    the newest full snapshot plus an atomically swapped ``latest``
    symlink (a plain file on filesystems without symlinks), so
    ``repro obs tail`` always has one coherent snapshot to render.

Everything is append-or-atomic-replace (:mod:`repro.durable`): a crash
mid-flush leaves at worst one partial trailing JSONL line, which the
next flush's append truncates, and never a torn ``.prom`` or
``latest``.  Flush failures are contained — counted on
``obs.export.errors``, logged as ``export.flush_error`` events, and
surfaced once via :attr:`TelemetryExporter.error` — so telemetry can
never take down the measurement it is observing.
"""

from __future__ import annotations

import json
import os
import threading
import time

from ..durable import LineLog, atomic_write
from . import resources
from .catalogue import CATALOGUE, COUNTER, GAUGE, HISTOGRAM, TIMER
from .log import EVENT_CATALOGUE, RESERVED_FIELDS

#: The directory layout version written to the ``format`` marker file.
FORMAT = "telemetry-v1"

_PROM_PREFIX = "repro_"


def _prom_name(name):
    """The OpenMetrics family name for a catalogued metric name."""
    return _PROM_PREFIX + name.replace(".", "_")


def _escape_label_value(value):
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _escape_help(text):
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_openmetrics(snapshot, resource_samples=None):
    """Render one registry snapshot as OpenMetrics exposition text.

    Counters and timers are exposed with the mandatory ``_total``
    sample suffix; histograms become cumulative ``_bucket{le="..."}``
    series (upper bounds ``2**e`` from the power-of-two exponents)
    plus ``+Inf`` and ``_count``.  When ``resource_samples`` — a dict
    mapping a worker label (``"parent"`` or a pid string) to that
    process's most recent resource record — is given, the
    ``resource.*`` gauges are rendered once per process with a
    ``worker`` label instead of from the merged snapshot, so parent
    and worker resource series stay distinguishable on a dashboard.
    The text ends with the ``# EOF`` terminator the OpenMetrics
    spec requires.
    """
    lines = []
    for name, spec in CATALOGUE.items():
        if name not in snapshot:
            continue
        value = snapshot[name]
        family = _prom_name(name)
        om_type = "histogram" if spec.kind == HISTOGRAM else (
            "counter" if spec.kind in (COUNTER, TIMER) else "gauge")
        lines.append("# HELP %s %s" % (family, _escape_help(spec.description)))
        lines.append("# TYPE %s %s" % (family, om_type))
        if spec.kind == HISTOGRAM:
            total = 0
            for exponent in sorted(int(e) for e in value):
                total += value[exponent] if exponent in value \
                    else value[str(exponent)]
                lines.append('%s_bucket{le="%s"} %d'
                             % (family, _format_value(float(2 ** exponent)),
                                total))
            lines.append('%s_bucket{le="+Inf"} %d' % (family, total))
            lines.append("%s_count %d" % (family, total))
        elif spec.kind in (COUNTER, TIMER):
            lines.append("%s_total %s" % (family, _format_value(value)))
        elif (resource_samples and name.startswith("resource.")):
            field = name[len("resource."):]
            for worker, record in resource_samples.items():
                if field not in record:
                    continue
                lines.append('%s{worker="%s"} %s'
                             % (family, _escape_label_value(worker),
                                _format_value(record[field])))
        else:
            lines.append("%s %s" % (family, _format_value(value)))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _unescape_label_value(raw):
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ("\\", '"'):
                out.append(nxt)
            else:
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(raw):
    """Parse ``name="value",...`` label text into a dict."""
    labels = {}
    i = 0
    while i < len(raw):
        if raw[i] == ",":
            i += 1
            continue
        eq = raw.index("=", i)
        label = raw[i:eq].strip()
        if raw[eq + 1] != '"':
            raise ValueError("label value for %r is not quoted" % label)
        j = eq + 2
        buf = []
        while j < len(raw):
            ch = raw[j]
            if ch == "\\" and j + 1 < len(raw):
                buf.append(ch)
                buf.append(raw[j + 1])
                j += 2
                continue
            if ch == '"':
                break
            buf.append(ch)
            j += 1
        else:
            raise ValueError("unterminated label value for %r" % label)
        labels[label] = _unescape_label_value("".join(buf))
        i = j + 1
    return labels


class MetricFamily:
    """One parsed OpenMetrics family: type, help, and samples."""

    __slots__ = ("name", "type", "help", "samples")

    def __init__(self, name):
        self.name = name
        self.type = None
        self.help = None
        #: list of ``(sample_name, labels_dict, value)`` tuples.
        self.samples = []


def parse_openmetrics(text):
    """Parse exposition text into ``{family_name: MetricFamily}``.

    A deliberately minimal parser — enough to round-trip everything
    :func:`render_openmetrics` emits and to power
    :func:`lint_openmetrics` — that raises ``ValueError`` on malformed
    lines rather than guessing.
    """
    families = {}
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if saw_eof:
            raise ValueError("line %d: content after # EOF" % lineno)
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            keyword = line[2:6]
            rest = line[7:]
            try:
                name, payload = rest.split(" ", 1)
            except ValueError:
                raise ValueError("line %d: malformed # %s line"
                                 % (lineno, keyword))
            family = families.setdefault(name, MetricFamily(name))
            if keyword == "HELP":
                family.help = payload
            else:
                family.type = payload
            continue
        if line.startswith("#"):
            continue  # comment
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ValueError("line %d: unbalanced label braces" % lineno)
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1:close])
            value_text = line[close + 1:].strip()
        else:
            parts = line.split()
            if len(parts) < 2:
                raise ValueError("line %d: sample without a value" % lineno)
            sample_name = parts[0]
            labels = {}
            value_text = parts[1]
        if value_text == "+Inf":
            value = float("inf")
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError("line %d: unparseable sample value %r"
                                 % (lineno, value_text))
        base = sample_name
        for suffix in ("_total", "_bucket", "_count", "_sum"):
            if base.endswith(suffix) and base[:-len(suffix)] in families:
                base = base[:-len(suffix)]
                break
        family = families.setdefault(base, MetricFamily(base))
        family.samples.append((sample_name, labels, value))
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families


def lint_openmetrics(text):
    """Check exposition text against the rules we promise to follow.

    Returns a list of human-readable problem strings (empty when
    clean): every family must carry ``# HELP`` and ``# TYPE``; counter
    samples must end in ``_total``; histogram buckets must be
    cumulative, non-decreasing, include ``le="+Inf"``, and agree with
    ``_count``; the text must terminate with ``# EOF``.
    """
    problems = []
    try:
        families = parse_openmetrics(text)
    except ValueError as exc:
        return ["unparseable exposition text: %s" % exc]
    for name, family in families.items():
        if family.type is None:
            problems.append("family %s has no # TYPE line" % name)
            continue
        if family.help is None:
            problems.append("family %s has no # HELP line" % name)
        if family.type == "counter":
            for sample_name, _labels, _value in family.samples:
                if not sample_name.endswith("_total"):
                    problems.append(
                        "counter sample %s does not end in _total"
                        % sample_name)
        elif family.type == "histogram":
            buckets = [(labels.get("le"), value)
                       for sample_name, labels, value in family.samples
                       if sample_name == name + "_bucket"]
            counts = [value for sample_name, _labels, value
                      in family.samples if sample_name == name + "_count"]
            if not any(le == "+Inf" for le, _ in buckets):
                problems.append("histogram %s has no +Inf bucket" % name)
            previous = None
            for le, value in buckets:
                if previous is not None and value < previous:
                    problems.append(
                        "histogram %s buckets are not cumulative "
                        "(le=%s drops below the previous bucket)"
                        % (name, le))
                    break
                previous = value
            if buckets and counts:
                inf = [value for le, value in buckets if le == "+Inf"]
                if inf and counts[0] != inf[0]:
                    problems.append(
                        "histogram %s _count (%s) disagrees with its "
                        "+Inf bucket (%s)" % (name, counts[0], inf[0]))
    return problems


class _Ledger:
    """Keeps published counters monotone across registry resets.

    A process that calls ``obs.enable()`` again while an exporter runs
    (to give each of several measurements a fresh registry window)
    resets the live registry, so raw counter values can *drop*.  A Prometheus
    counter must never do that, and neither may ``metrics.jsonl`` if
    ``repro obs check`` is to assert monotonicity.  The ledger
    remembers, per counter/timer/bucket, the last raw reading and the
    running published total: a raw value that moved forward publishes
    the delta; a raw value below the last reading is a reset, and the
    whole new value is the delta.  Keys absent from a snapshot (a
    disabled-registry window) carry their published total forward.
    Gauges pass through untouched.
    """

    __slots__ = ("_last_raw", "_published")

    def __init__(self):
        self._last_raw = {}
        self._published = {}

    def _advance(self, key, raw):
        last = self._last_raw.get(key, 0)
        delta = raw - last if raw >= last else raw
        self._last_raw[key] = raw
        total = self._published.get(key, 0) + delta
        self._published[key] = total
        return total

    def publish(self, snapshot):
        """The monotone published view of one raw registry snapshot."""
        published = {}
        for name, spec in CATALOGUE.items():
            if name in snapshot:
                raw = snapshot[name]
                if spec.kind == GAUGE:
                    published[name] = raw
                elif spec.kind == HISTOGRAM:
                    buckets = {}
                    seen = set()
                    for bucket, count in raw.items():
                        bucket = int(bucket)
                        seen.add(bucket)
                        buckets[bucket] = self._advance((name, bucket),
                                                        count)
                    for key, total in self._published.items():
                        if (isinstance(key, tuple) and key[0] == name
                                and key[1] not in seen):
                            buckets[key[1]] = total
                    published[name] = buckets
                else:
                    published[name] = self._advance(name, raw)
            else:
                # Disabled-registry window: carry totals forward.
                if spec.kind == GAUGE:
                    if name in self._published:
                        published[name] = self._published[name]
                elif spec.kind == HISTOGRAM:
                    buckets = {}
                    for key, total in self._published.items():
                        if isinstance(key, tuple) and key[0] == name:
                            buckets[key[1]] = total
                            self._last_raw[key] = 0
                    published[name] = buckets
                else:
                    published[name] = self._published.get(name, 0)
                    self._last_raw[name] = 0
        return published

    def remember_gauges(self, published):
        """Stash gauges so disabled-registry windows keep the last value."""
        for name, spec in CATALOGUE.items():
            if spec.kind == GAUGE and name in published:
                self._published[name] = published[name]


#: Public name for the monotone-publishing ledger: the measurement
#: service's ``/metrics`` endpoint keeps its own instance so scrapes
#: stay monotone across registry resets, exactly like the exporter's.
Ledger = _Ledger


def _swap_latest(directory, target_name):
    """Point ``<directory>/latest`` at ``target_name``, atomically.

    Prefers an atomically replaced symlink; on filesystems without
    symlink support, falls back to copying the target into a regular
    ``latest`` file (still via atomic rename).
    """
    latest = os.path.join(directory, "latest")
    tmp = os.path.join(directory, ".latest.tmp.%d" % os.getpid())
    try:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        os.symlink(target_name, tmp)
        os.replace(tmp, latest)
    except OSError:
        with open(os.path.join(directory, target_name)) as handle:
            atomic_write(latest, handle.read())


class TelemetryExporter:
    """Background flusher writing the ``telemetry-v1`` directory.

    Create it pointed at a directory (created if missing, may be
    non-empty — appends continue an earlier series), then
    :meth:`start` the daemon thread; :meth:`stop` joins it and runs
    one final flush so short runs still leave a complete record.  Any
    OSError creating the directory propagates to the caller (the CLI
    maps it to the sink-failure exit contract); errors *during* a
    flush never propagate — they are counted, logged, and remembered
    on :attr:`error`.
    """

    def __init__(self, directory, interval=1.0):
        self.directory = str(directory)
        self.interval = float(interval)
        if self.interval <= 0:
            raise ValueError("interval must be positive, got %r" % interval)
        #: The first exception a flush raised, or ``None``.
        self.error = None
        self.flushes = 0
        self._seq = 0
        self._ledger = _Ledger()
        self._stop = threading.Event()
        self._thread = None
        self._worker_buffer = []
        self._worker_latest = {}
        self._buffer_lock = threading.Lock()
        self._previous_snapshot_name = None
        os.makedirs(self.directory, exist_ok=True)
        os.makedirs(os.path.join(self.directory, "workers"), exist_ok=True)
        atomic_write(os.path.join(self.directory, "format"), FORMAT + "\n")

    def start(self):
        """Flush once, then start the background flusher (idempotent).

        The first flush runs before :meth:`start` returns, so from then
        on the directory holds a whole generation that ``repro obs
        check`` accepts, even if the process is killed before the
        thread's first interval ends.
        """
        if self._thread is not None:
            return self
        from repro import obs
        obs.get_metrics().enable_thread_safety()
        self.flush()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-telemetry", daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(self.interval):
            self.flush()

    def absorb_worker(self, record):
        """Buffer one worker resource record for the next flush.

        Called from the batch engine's collection path (parent
        process, possibly concurrently with the flusher thread); the
        record lands in ``workers/<pid>/resources.jsonl`` and in the
        per-worker ``worker=<pid>`` series of ``metrics.prom``.
        """
        if not isinstance(record, dict) or "pid" not in record:
            return
        with self._buffer_lock:
            self._worker_buffer.append(record)

    def flush(self):
        """Run one flush; contain (but remember) any failure."""
        try:
            self._flush()
        except Exception as exc:  # noqa: BLE001 - containment is the point
            if self.error is None:
                self.error = exc
            from repro import obs
            metrics = obs.get_metrics()
            if metrics.enabled:
                try:
                    metrics.incr("obs.export.errors")
                except Exception:
                    pass
            try:
                obs.get_event_log().event("export.flush_error",
                                          error=str(exc))
            except Exception:
                pass

    def _flush(self):
        from repro import obs
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.enable_thread_safety()
        now = time.time()
        parent_sample = resources.sample(metrics)
        raw = metrics.snapshot()
        published = self._ledger.publish(raw)
        self._ledger.remember_gauges(published)
        self._seq += 1
        seq = self._seq
        bytes_written = 0

        with self._buffer_lock:
            worker_records = self._worker_buffer
            self._worker_buffer = []
        for record in worker_records:
            self._worker_latest[record["pid"]] = record

        bytes_written += self._append_jsonl(
            "metrics.jsonl", [{"ts": now, "seq": seq, "metrics": published}])
        bytes_written += self._append_jsonl("resources.jsonl",
                                            [parent_sample])
        by_pid = {}
        for record in worker_records:
            by_pid.setdefault(record["pid"], []).append(record)
        for pid, records in by_pid.items():
            worker_dir = os.path.join(self.directory, "workers", str(pid))
            os.makedirs(worker_dir, exist_ok=True)
            bytes_written += self._append_jsonl(
                os.path.join("workers", str(pid), "resources.jsonl"),
                records)
        events = obs.get_event_log().drain()
        if events:
            bytes_written += self._append_jsonl("events.jsonl", events)

        samples = {"parent": parent_sample}
        for pid, record in self._worker_latest.items():
            samples[str(pid)] = record
        prom = render_openmetrics(published, resource_samples=samples)
        atomic_write(os.path.join(self.directory, "metrics.prom"), prom)
        bytes_written += len(prom)

        snapshot_name = "snapshot-%d.json" % seq
        snapshot_doc = {"ts": now, "seq": seq, "format": FORMAT,
                        "metrics": published, "resources": samples}
        snapshot_text = json.dumps(snapshot_doc, sort_keys=False) + "\n"
        atomic_write(os.path.join(self.directory, snapshot_name),
                     snapshot_text)
        bytes_written += len(snapshot_text)
        _swap_latest(self.directory, snapshot_name)
        if (self._previous_snapshot_name
                and self._previous_snapshot_name != snapshot_name):
            try:
                os.unlink(os.path.join(self.directory,
                                       self._previous_snapshot_name))
            except OSError:
                pass
        self._previous_snapshot_name = snapshot_name

        self.flushes += 1
        if metrics.enabled:
            metrics.incr("obs.export.flushes")
            metrics.incr("obs.export.bytes", bytes_written)

    def _append_jsonl(self, relative, records):
        text = "".join(json.dumps(record, sort_keys=False) + "\n"
                       for record in records)
        with LineLog(os.path.join(self.directory, relative),
                     fsync=False) as log:
            log.append(text)
        return len(text)

    def stop(self, flush=True):
        """Stop the flusher, run one final flush, return the first error."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=max(5.0, self.interval * 2))
            self._thread = None
        if flush:
            self.flush()
        return self.error


def read_latest(directory):
    """The most recent full snapshot document of a telemetry dir."""
    with open(os.path.join(str(directory), "latest")) as handle:
        return json.load(handle)


def _check_monotone(records, problems):
    """Assert counters/timers/buckets never decrease across records."""
    previous = None
    previous_seq = None
    for record in records:
        seq = record.get("seq")
        if previous_seq is not None and (seq is None or seq <= previous_seq):
            problems.append("metrics.jsonl seq is not strictly increasing "
                            "(%r after %r)" % (seq, previous_seq))
        previous_seq = seq
        snapshot = record.get("metrics", {})
        if previous is not None:
            for name, spec in CATALOGUE.items():
                if name not in snapshot or name not in previous:
                    continue
                if spec.kind == GAUGE:
                    continue
                if spec.kind == HISTOGRAM:
                    before, after = previous[name], snapshot[name]
                    for bucket, count in before.items():
                        if after.get(bucket, 0) < count:
                            problems.append(
                                "histogram %s bucket %s decreased at seq %s"
                                % (name, bucket, seq))
                            break
                elif snapshot[name] < previous[name]:
                    problems.append("counter %s decreased at seq %s "
                                    "(%r -> %r)" % (name, seq,
                                                    previous[name],
                                                    snapshot[name]))
        previous = snapshot


def _read_jsonl(path, problems, label):
    records = []
    try:
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except ValueError:
                    problems.append("%s line %d is not valid JSON"
                                    % (label, lineno))
    except OSError as exc:
        problems.append("cannot read %s: %s" % (label, exc))
    return records


def check_dir(directory):
    """Lint a telemetry directory; returns a list of problems.

    The ``repro obs check`` implementation: verifies the format
    marker, lints ``metrics.prom`` as OpenMetrics, asserts
    counter/timer/histogram monotonicity and strictly increasing
    sequence numbers across ``metrics.jsonl``, checks that every
    event in ``events.jsonl`` is catalogued and schema-complete, and
    parses every ``resources.jsonl`` (parent and workers) and the
    ``latest`` snapshot.
    """
    directory = str(directory)
    problems = []
    marker = os.path.join(directory, "format")
    try:
        with open(marker) as handle:
            found = handle.read().strip()
        if found != FORMAT:
            problems.append("format marker says %r, expected %r"
                            % (found, FORMAT))
    except OSError:
        problems.append("missing format marker file")

    prom_path = os.path.join(directory, "metrics.prom")
    if os.path.exists(prom_path):
        with open(prom_path) as handle:
            problems.extend(lint_openmetrics(handle.read()))
    else:
        problems.append("missing metrics.prom")

    metrics_path = os.path.join(directory, "metrics.jsonl")
    if os.path.exists(metrics_path):
        records = _read_jsonl(metrics_path, problems, "metrics.jsonl")
        _check_monotone(records, problems)
    else:
        problems.append("missing metrics.jsonl")

    events_path = os.path.join(directory, "events.jsonl")
    if os.path.exists(events_path):
        for record in _read_jsonl(events_path, problems, "events.jsonl"):
            name = record.get("event")
            if name not in EVENT_CATALOGUE:
                problems.append("events.jsonl has uncatalogued event %r"
                                % (name,))
                continue
            for field in RESERVED_FIELDS:
                if field not in record:
                    problems.append("event %r record is missing required "
                                    "field %r" % (name, field))

    resources_path = os.path.join(directory, "resources.jsonl")
    if os.path.exists(resources_path):
        for record in _read_jsonl(resources_path, problems,
                                  "resources.jsonl"):
            for field in resources.SAMPLE_FIELDS:
                if field not in record:
                    problems.append("resources.jsonl record is missing "
                                    "field %r" % field)
                    break
    else:
        problems.append("missing resources.jsonl")

    workers_dir = os.path.join(directory, "workers")
    if os.path.isdir(workers_dir):
        for pid in sorted(os.listdir(workers_dir)):
            worker_path = os.path.join(workers_dir, pid, "resources.jsonl")
            if not os.path.exists(worker_path):
                problems.append("worker dir %s has no resources.jsonl" % pid)
                continue
            label = "workers/%s/resources.jsonl" % pid
            for record in _read_jsonl(worker_path, problems, label):
                for field in resources.SAMPLE_FIELDS:
                    if field not in record:
                        problems.append("%s record is missing field %r"
                                        % (label, field))
                        break

    latest = os.path.join(directory, "latest")
    if os.path.exists(latest):
        try:
            read_latest(directory)
        except (OSError, ValueError) as exc:
            problems.append("latest snapshot is unreadable: %s" % exc)
    return problems
