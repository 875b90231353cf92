"""The workloads: seeded inputs, the timed op, and its oracle.

Every workload has the same parts:

* ``generate(seed)`` builds ``ITEMS`` inputs from the seed alone (and,
  for the corpus workload, the committed shard pool ``shards.json``).
  The op sequence of a run is ``items[i % ITEMS]`` for ``i`` in
  ``range(ops)``, so every run of a workload does the same work.
* ``op(item)`` is the timed operation: one call into the public API,
  starting from fresh state.
* ``summary(result)`` turns the op's return value into the small tuple
  the oracle checks.  It runs outside the timed region.
* ``oracle(item)`` computes the expected summary along a path other
  than the timed one (a different backend, the serial cold path, or
  the plain in-memory fold).

The traced replay of each op lives in ``traced.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: The committed pool of corpus shards (see :func:`shard_pool`).
SHARDS = os.path.join(HERE, "shards.json")

#: Distinct inputs per run; ops cycle through them.
ITEMS = 16

#: Fewest timed ops in a run: p90 then has at least ten samples above it.
MIN_OPS = 100

#: The FlowLang program of ``benchmarks/run_all.py``'s warm-start and
#: corpus sections (``WARMSTART_SOURCE``), copied here because
#: ``shards.json`` holds collapsed traces of it.
WARMSTART_SOURCE = """
fn main() {
    var buf: u8[32];
    var n: u32 = read_secret(buf, 32);
    var acc: u8 = 0;
    var i: u32 = 0;
    while (i < n) {
        if (buf[i] > 127) {
            acc = acc + 1;
        } else {
            acc = acc ^ buf[i];
        }
        i = i + 1;
    }
    output(acc);
}
"""

_WORDS = (
    "the of and to in is it that was for on are as with his they at be "
    "this from have or by one had not but what all were when we there can "
    "an your which their said if do will each about how up out them then "
    "she many some so these would other into has more her two like him see "
    "time could no make than first been its who now people my made over "
    "did down only way find use may water long little very after words "
    "called just where most know get through back much before go good new "
    "write our used me man too any day same right look think also around "
    "another came come work three word must because does part even place "
    "well such here take why things help put years different away again "
    "off went old number great tell men say small every found still "
    "between name should home big give air line set own under read last "
    "never us left end along while might next sound below saw something"
).split()


def english_text(rng, size, stops=b"."):
    """``size`` bytes of English-like prose: sentences of common words."""
    out = bytearray()
    while len(out) < size:
        words = [rng.choice(_WORDS) for _ in range(rng.randint(5, 14))]
        words[0] = words[0].capitalize()
        if len(words) > 7 and rng.random() < 0.4:
            words[rng.randint(2, len(words) - 3)] += ","
        out += (" ".join(words)).encode("ascii")
        out += bytes([rng.choice(stops)]) + b" "
    return bytes(out[:size])


def inputs_digest(items):
    """SHA-256 over the inputs' canonical ``repr``: equal digests mean
    two runs saw identical work."""
    return hashlib.sha256(repr(items).encode("utf-8")).hexdigest()


def _rng(name, seed):
    # One independent stream per workload and seed.
    return random.Random("%s:%d" % (name, seed))


# ----------------------------------------------------------------------
# measure_py: the Fig. 3 compressor under the Python tracer


class MeasurePy:
    name = "measure_py"
    nominal_ops_per_s = 80.0
    TEXT_BYTES = 512

    @staticmethod
    def generate(seed):
        rng = _rng("measure_py", seed)
        return [english_text(rng, MeasurePy.TEXT_BYTES)
                for _ in range(ITEMS)]

    @staticmethod
    def op(text):
        from repro.apps.bzip2 import measure_compression_flow
        return measure_compression_flow(text, online=True)

    @staticmethod
    def summary(result):
        graph = result.report.graph
        return (result.flow_bits, graph.num_nodes, graph.num_edges)

    @staticmethod
    def oracle(text):
        from repro.apps.bzip2 import measure_compression_flow
        return MeasurePy.summary(
            measure_compression_flow(text, online=True, backend="reference"))


# ----------------------------------------------------------------------
# batch: countpunct over 8 secrets in a two-worker pool


class Batch:
    name = "batch"
    nominal_ops_per_s = 10.0
    RUNS = 8
    SECRET_BYTES = 400
    JOBS = 2

    @staticmethod
    def source():
        from repro.apps.countpunct import FLOWLANG_SOURCE
        return FLOWLANG_SOURCE

    @staticmethod
    def generate(seed):
        rng = _rng("batch", seed)
        return [tuple(english_text(rng, Batch.SECRET_BYTES, stops=b".?")
                      for _ in range(Batch.RUNS))
                for _ in range(ITEMS)]

    @staticmethod
    def op(secrets):
        from repro.batch import measure_program_runs
        return measure_program_runs(Batch.source(), secrets, jobs=Batch.JOBS)

    @staticmethod
    def summary(result):
        return (result.bits,)

    @staticmethod
    def oracle(secrets):
        from repro.batch import measure_program_runs
        return Batch.summary(measure_program_runs(
            Batch.source(), secrets, jobs=1, warm_start=False))


# ----------------------------------------------------------------------
# corpus_dedup: the shard store and the root fold


def shard_pool(seed, count):
    """``count`` digest-distinct collapsed shards (canonical text) of
    traced WARMSTART_SOURCE runs on seeded secrets.

    This made ``shards.json`` (``python3 perfbench/workloads.py``).  The
    runs read the committed file instead of calling it, so the corpus
    inputs do not change when a later commit changes how a run is
    traced, collapsed or serialized.
    """
    from repro.core.tracker import TraceBuilder
    from repro.graph import collapse_graphs
    from repro.graph.serialize import dumps_graph, text_digest
    from repro.lang import compile_cached
    from repro.lang import execute
    rng = _rng("shards", seed)
    compiled = compile_cached(WARMSTART_SOURCE)
    seen = set()
    pool = []
    while len(pool) < count:
        secret = bytes(rng.randrange(256)
                       for _ in range(rng.randrange(8, 32)))
        _vm, graph = execute(compiled, secret, tracker=TraceBuilder())
        shard, _ = collapse_graphs([graph], context_sensitive=True)
        text = dumps_graph(shard)
        digest = text_digest(text)
        if digest not in seen:
            seen.add(digest)
            pool.append(text)
    return pool


def load_shards():
    """The committed shard pool: a list of ``flowgraph-v1`` texts."""
    with open(SHARDS) as handle:
        return json.load(handle)["shards"]


class CorpusDedup:
    name = "corpus_dedup"
    nominal_ops_per_s = 25.0
    RUNS = 2000
    DISTINCT = 16

    @staticmethod
    def generate(seed):
        """Each item: ``RUNS`` shard texts, every one of ``DISTINCT``
        shards of the committed pool repeated equally often, in seeded
        shuffled order."""
        cls = CorpusDedup
        pool = load_shards()
        rng = _rng(cls.name, seed)
        items = []
        for _ in range(ITEMS):
            shards = rng.sample(pool, cls.DISTINCT)
            corpus = shards * (cls.RUNS // cls.DISTINCT)
            rng.shuffle(corpus)
            items.append(tuple(corpus))
        return items

    @staticmethod
    def op(corpus, root):
        """One corpus into a fresh store at ``root``, then the combine."""
        from repro.batch.runs import combine_store_jobs
        from repro.store import ShardStore
        store = ShardStore(root)
        for text in corpus:
            store.put_text(text)
        result = combine_store_jobs(store, jobs=1)
        store.close()
        return result

    @staticmethod
    def summary(result):
        return (result.bits, result.distinct)

    @staticmethod
    def oracle(corpus):
        """The plain fold over the literal corpus, and the intended shape."""
        return (fold_bits(parse_distinct(corpus), corpus),
                CorpusDedup.DISTINCT)


def parse_distinct(corpus):
    """``{text: graph}`` for each distinct shard text of a corpus."""
    from repro.graph.serialize import load_graph
    return {text: load_graph(io.StringIO(text)) for text in set(corpus)}


def fold_bits(graphs, corpus):
    """Bits of the plain in-memory fold (``collapse_graphs`` + Dinic) over
    the literal corpus, one graph per run."""
    from repro.graph import collapse_graphs, dinic_max_flow
    folded, _ = collapse_graphs([graphs[text] for text in corpus],
                                context_sensitive=True)
    return dinic_max_flow(folded)[0]


WORKLOADS = {w.name: w for w in (MeasurePy, Batch, CorpusDedup)}


def needs_store(workload):
    return workload is CorpusDedup


def op_count(workload, seconds):
    """Fixed op count for a run of nominally ``seconds`` seconds."""
    return max(MIN_OPS, int(round(seconds * workload.nominal_ops_per_s)))


def store_root(work, tag, index):
    return os.path.join(work, "stores", "%s-%d" % (tag, index))


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    with open(SHARDS, "w") as out:
        json.dump({"program": "WARMSTART_SOURCE", "seed": 0,
                   "shards": shard_pool(0, 128)}, out, indent=0)
        out.write("\n")
