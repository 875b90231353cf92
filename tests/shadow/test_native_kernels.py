"""Unit tests for the compiled ``repro._native`` kernels.

The randomized cross-backend matrix lives in
``test_backend_equivalence.py``; this file pins down the C-specific
edges the matrix may not hit: wide-integer punts and the session's
accounting of them, the ABI staleness gate, and the Dinic kernel's
residual/counter identity (including the int64-overflow fallback).
Everything here skips cleanly when the extension is not built.
"""

import io
import random

import pytest

from repro import obs
from repro.core.locations import Location
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.maxflow import dinic_max_flow
from repro.graph.serialize import dump_graph
from repro.pytrace import Session
from repro.shadow import native_available
from repro.shadow.bitmask import width_mask
from repro.shadow.fast import native_kernels

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="compiled repro._native extension not built here")


@pytest.fixture
def kern():
    return native_kernels()


class TestABI:
    def test_load_checks_abi(self, kern):
        from repro import _native
        assert _native.available()
        assert _native.load() is kern
        assert kern.KERNEL_ABI == _native.KERNEL_ABI

    def test_stale_abi_degrades_to_unavailable(self, monkeypatch):
        # A stale .so (old KERNEL_ABI) must read as "no extension",
        # never as silently different kernels.
        from repro import _native
        monkeypatch.setattr(_native, "_impl", None)
        assert _native.load() is None
        assert not _native.available()


class TestBinaryKernel:
    """The fused evaluate+transfer kernel vs the session's pure tables."""

    def _pure(self, op, av, am, bv, bm, width):
        from repro.pytrace.session import _BIN_PAIRS, _CMP_PAIRS
        pair = _CMP_PAIRS.get(op)
        if pair is not None:
            evaluate, xfer = pair
            return int(evaluate(av, bv)), xfer(av, am, bv, bm, 1)
        evaluate, xfer = _BIN_PAIRS[op]
        w = width_mask(width)
        return evaluate(av, bv, w) & w, xfer(av, am, bv, bm, width)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_fuzz_matches_pure_tables(self, kern, seed):
        ops = list(kern.OP_IDS)
        rng = random.Random(seed)
        for _ in range(2000):
            op = rng.choice(ops)
            width = rng.choice([1, 8, 16, 32, 64])
            w = width_mask(width)
            av, bv = rng.getrandbits(width), rng.getrandbits(width)
            am = rng.getrandbits(width) if rng.random() < 0.7 else 0
            bm = rng.getrandbits(width) if rng.random() < 0.7 else 0
            am, bm = am & w, bm & w
            if op in ("div", "mod") and bv == 0:
                bv = 1
            got = kern.binary_kernel(kern.OP_IDS[op], av, am, bv, bm,
                                     width)
            if got is None:
                # The only in-range punt: shifting a secret mask by a
                # huge amount, where pure Python may raise MemoryError.
                assert op == "shl" and bv >= 64 and am and not bm, \
                    (op, av, am, bv, bm, width)
                continue
            assert got == self._pure(op, av, am, bv, bm, width), \
                (op, av, am, bv, bm, width)

    def test_op_ids_cover_session_tables(self, kern):
        from repro.pytrace.session import _BIN_PAIRS, _CMP_PAIRS
        assert set(kern.OP_IDS) == set(_BIN_PAIRS) | set(_CMP_PAIRS)

    def test_punts_to_python(self, kern):
        # Every punt returns None so the session's pure path -- the one
        # that raises the same exceptions as the reference backend --
        # computes the answer.
        op = kern.OP_IDS
        # Division / modulo by zero: Python must raise, so C punts.
        assert kern.binary_kernel(op["div"], 4, 0, 0, 0, 8) is None
        assert kern.binary_kernel(op["mod"], 4, 0, 0, 0, 8) is None
        # Operands beyond the machine word.
        assert kern.binary_kernel(op["add"], 1 << 64, 0, 1, 0, 64) is None
        assert kern.binary_kernel(op["add"], 1, 0, 1, 1 << 64, 64) is None
        # Widths beyond 64 bits.
        assert kern.binary_kernel(op["xor"], 1, 0, 1, 0, 65) is None
        # Huge shift of a secret mask: the pure transfer may raise
        # MemoryError (reference semantics), so C must not shortcut it.
        assert kern.binary_kernel(op["shl"], 1, 3, 200, 0, 64) is None


class TestSessionAccounting:
    """The session's use of the binary-op kernel slot, end to end."""

    def _wide_run(self, backend):
        # ``x + 2**70`` has an operand (and result width) beyond the
        # machine word, so the native slot punts it to the pure pairs.
        session = Session(backend=backend)
        x = session.secret_int(200, width=8)
        y = x + (1 << 70)
        session.output(y, x ^ 3)
        obs.enable()
        try:
            report = session.measure()
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        text = io.StringIO()
        dump_graph(report.graph, text)
        return (report.bits, text.getvalue(), session.outputs), snap

    def test_wide_operand_falls_back_with_identical_report(self):
        native, snap = self._wide_run("native")
        reference, ref_snap = self._wide_run("reference")
        assert native == reference
        # Both binary ops went through the kernel slot; only the wide
        # addition punted, the 8-bit xor stayed compiled.
        assert snap["shadow.native.kernel_calls"] == 2
        assert snap["shadow.native.fallbacks"] == 1
        assert ref_snap["shadow.native.kernel_calls"] == 0
        assert ref_snap["shadow.native.fallbacks"] == 0

    @pytest.mark.parametrize("op", ["div", "mod"])
    def test_secret_division_by_zero_raises_like_reference(self, op):
        raised = {}
        for backend in ("reference", "native"):
            session = Session(backend=backend)
            x = session.secret_int(7, width=8)
            zero = session.secret_int(0, width=8)
            with pytest.raises(Exception) as err:
                if op == "div":
                    x // zero
                else:
                    x % zero
            raised[backend] = err.type
        assert raised["native"] is raised["reference"]
        assert issubclass(raised["native"], ZeroDivisionError)


def random_graph(seed, big_caps=False):
    rng = random.Random(seed)
    graph = FlowGraph()
    n = rng.randrange(4, 24)
    for _ in range(n - 2):
        graph.add_node()
    for i in range(rng.randrange(n, 4 * n)):
        tail = rng.randrange(n)
        head = rng.randrange(n)
        if tail == head or head == graph.SOURCE or tail == graph.SINK:
            continue
        cap = rng.randrange(1, 1 << 70) if big_caps \
            else rng.randrange(1, 64)
        graph.add_edge(tail, head, cap,
                       EdgeLabel(Location("g", i, "e"), None, "value"))
    graph.add_edge(graph.SOURCE, rng.randrange(2, n), 8,
                   EdgeLabel(Location("g", -1, "s"), None, "value"))
    return graph


class TestDinicKernel:
    @pytest.mark.parametrize("seed", [31, 32, 33, 34, 35])
    def test_solve_identical_to_python(self, seed):
        graph = random_graph(seed)
        snaps = {}
        for backend in ("fast", "native"):
            obs.enable()
            try:
                value, net = dinic_max_flow(graph, backend=backend)
                snaps[backend] = (value, list(net.cap),
                                  net.source_side(),
                                  obs.get_metrics().snapshot())
            finally:
                obs.disable()
        fast_value, fast_cap, fast_side, fast_snap = snaps["fast"]
        nat_value, nat_cap, nat_side, nat_snap = snaps["native"]
        assert nat_value == fast_value
        assert nat_cap == fast_cap
        assert nat_side == fast_side
        # Counter-for-counter identity: same phases, same paths, same
        # path-length histogram.  Only the backend-tagged counters may
        # differ (docs/backends.md).
        for key in ("maxflow.dinic.bfs_phases",
                    "maxflow.dinic.augmenting_paths",
                    "maxflow.dinic.path_length"):
            assert nat_snap[key] == fast_snap[key], key
        assert nat_snap["maxflow.native.solves"] == 1
        assert fast_snap["maxflow.native.solves"] == 0

    def test_big_capacities_fall_back(self):
        # Capacities beyond int64 punt to the Python loop -- and still
        # produce the right value.
        graph = random_graph(41, big_caps=True)
        obs.enable()
        try:
            value, _ = dinic_max_flow(graph, backend="native")
            snap = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        ref_value, _ = dinic_max_flow(graph, backend="reference")
        assert value == ref_value
        assert snap["maxflow.native.fallbacks"] == 1
        assert snap["maxflow.native.solves"] == 0

    def test_inf_saturation(self, kern):
        # A source->sink INF edge: the kernel clamps at INF exactly like
        # the Python loop.
        graph = FlowGraph()
        graph.add_edge(graph.SOURCE, graph.SINK, INF,
                       EdgeLabel(Location("g", 0, "e"), None, "value"))
        value, _ = dinic_max_flow(graph, backend="native")
        ref, _ = dinic_max_flow(graph, backend="reference")
        assert value == ref == INF
