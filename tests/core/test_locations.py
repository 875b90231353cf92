"""Tests for code locations and calling-context hashing."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.core.locations import ContextHasher, Location


class TestLocation:
    def test_equality(self):
        assert Location("f.c", 3) == Location("f.c", 3)
        assert Location("f.c", 3) != Location("f.c", 4)
        assert Location("f.c", 3, "then") != Location("f.c", 3)

    def test_hashable(self):
        locations = {Location("f.c", 3), Location("f.c", 3)}
        assert len(locations) == 1

    def test_rendering(self):
        assert str(Location("f.c", 3)) == "f.c:3"
        assert str(Location("f.c", 3, "then")) == "f.c:3(then)"


# Traces countpunct (main calls count_punct, so every labelled edge
# carries a non-zero context) and prints the collapsed shard's digest.
SHARD_DIGEST_SCRIPT = """
from repro.apps.countpunct import FLOWLANG_SOURCE
from repro.core.tracker import TraceBuilder
from repro.graph import collapse_graphs
from repro.graph.serialize import graph_digest
from repro.lang import compile_cached, execute
_vm, graph = execute(compile_cached(FLOWLANG_SOURCE), b"..?.",
                     tracker=TraceBuilder())
print(graph_digest(collapse_graphs([graph], context_sensitive=True)[0]))
"""


class TestContextHasher:
    def test_same_shard_in_every_process(self):
        # Shards traced by different processes must collapse together
        # (a store grown by two batches, a resumed service job), so no
        # context may depend on the per-process string-hash salt.
        digests = set()
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            done = subprocess.run([sys.executable, "-c",
                                   SHARD_DIGEST_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  check=True, timeout=120)
            digests.add(done.stdout.strip())
        assert len(digests) == 1

    def test_starts_empty(self):
        ctx = ContextHasher()
        assert ctx.current == 0
        assert ctx.depth == 0

    def test_push_changes_context(self):
        ctx = ContextHasher()
        ctx.push_call("site1")
        assert ctx.current != 0
        assert ctx.depth == 1

    def test_pop_restores_exactly(self):
        ctx = ContextHasher()
        ctx.push_call("a")
        snapshot = ctx.current
        ctx.push_call("b")
        ctx.pop_call()
        assert ctx.current == snapshot
        ctx.pop_call()
        assert ctx.current == 0

    def test_different_paths_differ(self):
        c1 = ContextHasher()
        c1.push_call("a")
        c1.push_call("b")
        c2 = ContextHasher()
        c2.push_call("b")
        c2.push_call("a")
        assert c1.current != c2.current

    def test_pop_empty_rejected(self):
        with pytest.raises(IndexError):
            ContextHasher().pop_call()

    def test_reset(self):
        ctx = ContextHasher()
        ctx.push_call("a")
        ctx.reset()
        assert ctx.current == 0
        assert ctx.depth == 0

    @given(st.lists(st.integers(0, 5), max_size=20))
    def test_deterministic(self, sites):
        c1, c2 = ContextHasher(), ContextHasher()
        for s in sites:
            c1.push_call(s)
            c2.push_call(s)
        assert c1.current == c2.current

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    def test_push_pop_inverse(self, sites):
        ctx = ContextHasher()
        snapshots = []
        for s in sites:
            snapshots.append(ctx.current)
            ctx.push_call(s)
        for expected in reversed(snapshots):
            ctx.pop_call()
            assert ctx.current == expected
