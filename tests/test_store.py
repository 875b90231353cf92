"""Unit tests for the content-addressed shard store (``repro.store``)."""

import hashlib
import io
import multiprocessing
import os
import random
import struct
import time
import zlib

import pytest

from repro import obs
from repro import store as store_module
from repro.errors import GraphError, StoreError
from repro.graph.flowgraph import INF, EdgeLabel, FlowGraph
from repro.graph.serialize import (dumps_graph, graph_digest, load_graph,
                                   text_digest)
from repro.obs.log import NullEventLog
from repro.store import ShardStore

# The documented pack record header, restated here so the tests check
# the on-disk layout rather than echo the store's own constants:
# magic, crc32 over the rest of the record, raw digest, metadata
# length, blob length.  The blob is the shard's canonical text.
RECORD = struct.Struct(">4sI32sII")
MAGIC = b"FGP2"


def make_graph(capacity=4, location="a.fl:1"):
    graph = FlowGraph()
    a = graph.add_node()
    graph.add_edge(graph.SOURCE, a, capacity,
                   EdgeLabel(location, None, "data"))
    graph.add_edge(a, graph.SINK, capacity)
    return graph


def blob_of(graph):
    return dumps_graph(graph).encode("utf-8")


def record_bytes(digest, meta, blob, magic=MAGIC):
    """One pack record in the documented layout, its CRC stamped."""
    tail = struct.pack(">32sII", bytes.fromhex(digest), len(meta),
                       len(blob)) + meta + blob
    return magic + struct.pack(">I", zlib.crc32(tail)) + tail


def pack_records(root, check_crc=True):
    """Walk ``objects/pack`` without the store: one ``(offset, digest,
    metadata bytes, blob bytes)`` per record, every CRC checked unless
    ``check_crc`` is false."""
    with open(os.path.join(root, "objects", "pack"), "rb") as handle:
        data = handle.read()
    records = []
    offset = 0
    while offset < len(data):
        magic, crc, raw, meta_len, blob_len = RECORD.unpack_from(data,
                                                                 offset)
        end = offset + RECORD.size + meta_len + blob_len
        assert magic == MAGIC and end <= len(data)
        assert not check_crc or zlib.crc32(data[offset + 8:end]) == crc
        records.append((offset, raw.hex(),
                        data[offset + RECORD.size:end - blob_len],
                        data[end - blob_len:end]))
        offset = end
    return records


def rewrite_blob(root, digest, blob, fix_crc=True):
    """Overwrite the blob of ``digest``'s pack record in place (same
    length); with ``fix_crc`` the record's CRC is re-stamped, so the
    pack scan still walks past it and only the payload is damaged."""
    offset, meta, old = next((o, m, b) for o, d, m, b
                             in pack_records(root, check_crc=False)
                             if d == digest)
    assert len(blob) == len(old)
    size = RECORD.size + len(meta) + len(old)
    with open(os.path.join(root, "objects", "pack"), "r+b") as handle:
        handle.seek(offset)
        record = bytearray(handle.read(size))
        record[size - len(old):] = blob
        if fix_crc:
            struct.pack_into(">I", record, 4, zlib.crc32(record[8:]))
        handle.seek(offset)
        handle.write(record)


def pack_descriptors(root):
    """The access modes (``"r"`` or ``"w"``) of this process's open
    descriptors on the store's pack, deleted or not; ``None`` without
    ``/proc``."""
    if not os.path.isdir("/proc/self/fd"):
        return None
    pack = os.path.realpath(os.path.join(root, "objects", "pack"))
    modes = []
    for name in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink("/proc/self/fd/" + name)
        except OSError:
            continue
        if target.removesuffix(" (deleted)") == pack:
            with open("/proc/self/fdinfo/" + name) as info:
                flags = next(int(line.split()[1], 8) for line in info
                             if line.startswith("flags:"))
            modes.append("r" if flags & os.O_ACCMODE == os.O_RDONLY
                         else "w")
    return sorted(modes)


def put_objects(root, capacities, start):
    """Child process body for the concurrent-append test.

    Each catch-up scan sleeps before returning, which widens the window
    between an appender's duplicate check and its write: writers the
    pack lock did not serialize would append the same digest twice.
    """
    scan = ShardStore._scan

    def slow_scan(self):
        size = scan(self)
        time.sleep(0.002)
        return size

    ShardStore._scan = slow_scan
    store = ShardStore(root, create=False)
    start.wait(60)
    for capacity in capacities:
        store.put_object(make_graph(capacity))
    store.close()


def count_hashes(monkeypatch):
    """Make ``repro.store``'s ``text_digest`` record every text it
    hashes in the returned list."""
    hashed = []

    def counting(text):
        hashed.append(text)
        return text_digest(text)

    monkeypatch.setattr(store_module, "text_digest", counting)
    return hashed


class TestPut:
    def test_put_is_content_addressed(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g = make_graph()
        digest = store.put(g)
        assert digest == graph_digest(g)
        assert store.put(g) == digest
        assert len(store) == 2
        assert store.distinct == 1
        assert store.multiplicities() == [(digest, 2)]
        assert os.listdir(tmp_path / "store" / "objects") == ["pack"]
        assert [d for _, d, _, _ in pack_records(tmp_path / "store")] == \
            [digest]

    def test_put_text_matches_put(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g = make_graph()
        assert store.put_text(dumps_graph(g)) == store.put(g)
        assert store.distinct == 1

    def test_put_object_text_skips_manifest(self, tmp_path):
        # The service checkpoint path: durable, content-addressed,
        # idempotent — and invisible to the corpus manifest.
        store = ShardStore(tmp_path / "store")
        g = make_graph()
        digest = store.put_object_text(dumps_graph(g))
        assert digest == graph_digest(g)
        assert store.put_object_text(dumps_graph(g)) == digest
        assert len(store) == 0
        assert store.multiplicities() == []
        assert dumps_graph(store.get(digest)) == dumps_graph(g)
        assert store.meta(digest)["source_cap"] == g.source_capacity()

    def test_put_text_rejects_corrupt_text(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        # Rejected on every attempt: a failed put memoises nothing.
        for _ in range(2):
            with pytest.raises(GraphError):
                store.put_text("flowgraph-v1\nnonsense record\n")
        # The failed put left no manifest entry behind.
        assert len(store) == 0

    def test_repeated_text_is_hashed_once(self, tmp_path, monkeypatch):
        hashed = count_hashes(monkeypatch)
        store = ShardStore(tmp_path / "store")
        graph = make_graph()
        text = dumps_graph(graph)
        digest = store.put(graph)
        assert hashed == [text]
        fresh = "".join(list(text))
        assert fresh == text and fresh is not text
        for put in (lambda: store.put(graph), lambda: store.put_text(text),
                    lambda: store.put_text(fresh),
                    lambda: store.put_object(graph),
                    lambda: store.put_object_text(text),
                    lambda: store.put_object_text(fresh)):
            assert put() == digest
        assert hashed == [text]
        assert store.order() == [digest] * 4
        assert [d for _, d, _, _ in pack_records(tmp_path / "store")] == \
            [digest]

    def test_reopened_store_hashes_each_known_text_once(self, tmp_path,
                                                        monkeypatch):
        root = tmp_path / "store"
        texts = [dumps_graph(make_graph(c)) for c in (1, 2)]
        with ShardStore(root) as store:
            digests = [store.put_text(text) for text in texts]
        hashed = count_hashes(monkeypatch)
        store = ShardStore(root, create=False)
        for text in texts * 3:
            store.put_text(text)
        assert sorted(hashed) == sorted(texts)
        assert store.multiplicities() == [(d, 4) for d in digests]
        assert len(pack_records(root)) == 2
        store.close()

    def test_put_object_skips_manifest(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        digest = store.put_object(make_graph())
        assert store.has(digest)
        assert len(store) == 0
        assert store.distinct == 0

    def test_get_round_trips(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g = make_graph(capacity=9)
        digest = store.put(g)
        assert dumps_graph(store.get(digest, verify=True)) == dumps_graph(g)

    def test_order_preserved(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g1, g2 = make_graph(1), make_graph(2)
        d1, d2 = store.put(g1), store.put(g2)
        store.put(g1)
        assert store.order() == [d1, d2, d1]
        assert store.multiplicities() == [(d1, 2), (d2, 1)]


class TestPersistence:
    def test_reopen_restores_corpus(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(root)
        g1, g2 = make_graph(1), make_graph(2)
        store.put(g1), store.put(g2), store.put(g1)
        store.close()
        reopened = ShardStore(root, create=False)
        assert len(reopened) == 3
        assert reopened.distinct == 2
        assert reopened.order() == store.order()
        stats = reopened.stats()
        assert stats["runs"] == 3 and stats["distinct"] == 2
        assert stats["bytes"] > 0

    def test_metadata_contents(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        g = make_graph(capacity=6)
        meta = store.meta(store.put(g))
        assert meta["nodes"] == g.num_nodes
        assert meta["edges"] == g.num_edges
        assert meta["source_cap"] == 6
        assert meta["sink_cap"] == 6
        assert meta["dedup_safe_context"] is True

    def test_context_manager_closes(self, tmp_path):
        with ShardStore(tmp_path / "store") as store:
            store.put(make_graph())
        assert store._manifest_handle is None


class TestStoreErrors:
    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            ShardStore(tmp_path / "nope", create=False)

    def test_missing_object_rejected(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        with pytest.raises(StoreError):
            store.get("0" * 64)
        with pytest.raises(StoreError):
            store.meta("0" * 64)

    def test_malformed_manifest_line_dropped_on_recovery(self, tmp_path):
        # Recovery contract: a line that matches no blob is dropped (and
        # the manifest rewritten), not a hard open failure.
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.close()
        with open(root / "manifest", "a") as handle:
            handle.write("THIS IS NOT A DIGEST\n")
        store = ShardStore(root, create=False)
        assert store.recovered == {"repaired": 0, "dropped": 1}
        assert store.multiplicities() == [(digest, 1)]
        with open(root / "manifest") as handle:
            assert handle.read() == digest + "\n"
        # The rewritten manifest is clean: reopening sees no damage.
        assert ShardStore(root, create=False).recovered is None

    def test_torn_manifest_line_repaired_from_blobs(self, tmp_path):
        # A crash mid-append leaves a digest prefix; with the blob on
        # disk the unique-prefix repair restores the full entry.
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.put(make_graph())
        first.close()
        with open(root / "manifest", "w") as handle:
            handle.write(digest + "\n" + digest[:20])
        store = ShardStore(root, create=False)
        assert store.recovered == {"repaired": 1, "dropped": 0}
        assert store.multiplicities() == [(digest, 2)]
        assert len(store) == 2

    def test_torn_manifest_prefix_without_blob_dropped(self, tmp_path):
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.close()
        # A hex prefix that matches no blob cannot be repaired.
        with open(root / "manifest", "a") as handle:
            handle.write("beef")
        store = ShardStore(root, create=False)
        assert store.recovered == {"repaired": 0, "dropped": 1}
        assert store.multiplicities() == [(digest, 1)]

    def test_unterminated_whole_digest_survives_next_put(self, tmp_path):
        # A crash can cut the last line just before its newline; the
        # next put must not glue its digest onto that one.
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        other = first.put(make_graph(2))
        first.close()
        with open(root / "manifest", "w") as handle:
            handle.write(digest + "\n" + other)
        store = ShardStore(root, create=False)
        store.put(make_graph())
        store.close()
        reopened = ShardStore(root, create=False)
        assert len(reopened) == 3
        assert reopened.order() == [digest, other, digest]
        assert store.recovered == {"repaired": 1, "dropped": 0}
        assert reopened.recovered is None

    def test_non_utf8_manifest_line_dropped(self, tmp_path):
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.close()
        with open(root / "manifest", "ab") as handle:
            handle.write(b"\xff\xfe\n")
        store = ShardStore(root, create=False)
        assert store.recovered == {"repaired": 0, "dropped": 1}
        assert store.multiplicities() == [(digest, 1)]

    def test_recovery_emits_event(self, tmp_path):
        root = tmp_path / "store"
        first = ShardStore(root)
        digest = first.put(make_graph())
        first.close()
        with open(root / "manifest", "a") as handle:
            handle.write(digest[:12])
        obs.enable_events()
        try:
            ShardStore(root, create=False)
            events = [e for e in obs.get_event_log().snapshot()
                      if e["event"] == "store.recovered"]
            assert len(events) == 1
            assert events[0]["repaired"] == 1
            assert events[0]["dropped"] == 0
        finally:
            obs.disable_events()

    def test_bitrot_detected_on_verify(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(root)
        other = make_graph(capacity=5)
        digest = store.put(make_graph())
        # Swap in a different (valid) blob of the same length under a
        # matching CRC: only verify=True notices.
        rewrite_blob(root, digest, blob_of(other))
        assert dumps_graph(store.get(digest)) == dumps_graph(other)
        with pytest.raises(StoreError):
            store.get(digest, verify=True)

    def test_corrupt_blob_payload_is_graph_error(self, tmp_path):
        root = tmp_path / "store"
        store = ShardStore(root)
        digest = store.put(make_graph())
        blob = bytearray(blob_of(make_graph()))
        blob[20] ^= 0xFF
        # A flipped byte under a re-stamped CRC reaches the hardened
        # loader; without the re-stamp the CRC catches it first.
        rewrite_blob(root, digest, bytes(blob))
        with pytest.raises(GraphError):
            store.get(digest)
        rewrite_blob(root, digest, blob_of(make_graph()))
        assert store.get(digest, verify=True)
        rewrite_blob(root, digest, bytes(blob), fix_crc=False)
        with pytest.raises(StoreError, match="CRC"):
            store.get(digest)

    def test_old_binary_pack_refused_untouched(self, tmp_path):
        # An FGP1 pack (binary blobs) must be refused at open, never
        # read as one torn tail and truncated by the first append.
        root = tmp_path / "store"
        pack = root / "objects" / "pack"
        pack.parent.mkdir(parents=True)
        digest = graph_digest(make_graph())
        old = record_bytes(digest, b"{}", b"fgb1\x00\xdaQ\n", magic=b"FGP1")
        pack.write_bytes(old + old[:10])
        for create in (True, False):
            with pytest.raises(StoreError, match="FGP1"):
                ShardStore(root, create=create)
        assert pack.read_bytes() == old + old[:10]
        assert not (root / "manifest").exists()

    def test_multiplicities_match_order_after_recovery(self, tmp_path):
        root = tmp_path / "store"
        first = ShardStore(root)
        digests = [first.put(make_graph(c)) for c in (1, 2, 1, 3, 2, 1)]
        first.close()
        with open(root / "manifest", "a") as handle:
            handle.write(digests[3][:30])
        store = ShardStore(root, create=False)
        store.put(make_graph(2))
        assert store.recovered == {"repaired": 1, "dropped": 0}
        rescan = {}
        for digest in store.order():
            rescan[digest] = rescan.get(digest, 0) + 1
        assert store.multiplicities() == list(rescan.items())
        assert store.multiplicities() == [(digests[0], 3), (digests[1], 3),
                                          (digests[3], 2)]

    def test_old_layout_rejected(self, tmp_path):
        root = tmp_path / "store"
        objects = root / "objects"
        objects.mkdir(parents=True)
        (objects / (graph_digest(make_graph()) + ".fgb")).write_bytes(b"")
        for create in (True, False):
            with pytest.raises(StoreError, match="fgb"):
                ShardStore(root, create=create)
        assert not (objects / "pack").exists()


class TestPack:
    def test_torn_tail_truncated_on_next_put(self, tmp_path):
        root = tmp_path / "store"
        graphs = [make_graph(capacity) for capacity in (1, 2, 3)]
        store = ShardStore(root)
        digests = [store.put_object(graph) for graph in graphs]
        store.close()
        pack = root / "objects" / "pack"
        whole = pack.read_bytes()
        last = pack_records(root)[-1][0]
        for cut in range(last, len(whole)):
            pack.write_bytes(whole[:cut])
            torn = ShardStore(root, create=False)
            assert [torn.has(d) for d in digests] == [True, True, False]
            assert torn.put_object(graphs[2]) == digests[2]
            for digest, graph in zip(digests, graphs):
                assert dumps_graph(torn.get(digest)) == dumps_graph(graph)
            torn.close()
            assert pack.read_bytes() == whole
        # A tail of garbage (not just a short record) is torn too.
        pack.write_bytes(whole + bytes(100))
        store = ShardStore(root, create=False)
        assert all(store.has(d) for d in digests)
        extra = store.put_object(make_graph(4))
        assert [d for _, d, _, _ in pack_records(root)] == digests + [extra]

    @pytest.mark.parametrize("damage", ["blob", "magic", "long", "short"])
    def test_damaged_middle_record_loses_only_itself(self, tmp_path,
                                                     damage):
        root = tmp_path / "store"
        graphs = [make_graph(capacity) for capacity in (1, 2, 3, 4)]
        store = ShardStore(root)
        digests = [store.put(graph) for graph in graphs]
        store.close()
        pack = root / "objects" / "pack"
        offset, _, meta, blob = pack_records(root)[1]
        data = bytearray(pack.read_bytes())
        if damage == "blob":  # bit rot under the CRC
            data[offset + RECORD.size + len(meta) + 5] ^= 0x01
        elif damage == "magic":
            data[offset] ^= 0x01
        else:  # a blob length running past the end, or short of it
            struct.pack_into(">I", data, offset + RECORD.size - 4,
                             len(data) if damage == "long" else 3)
        pack.write_bytes(bytes(data))
        reopened = ShardStore(root, create=False)
        assert [reopened.has(d) for d in digests] == [True, False, True,
                                                      True]
        with pytest.raises(StoreError, match="no object"):
            reopened.get(digests[1])
        # The next put appends behind the last whole record instead of
        # truncating at the damage; a re-put of the lost shard heals it.
        extra = reopened.put_object(make_graph(5))
        assert reopened.put(graphs[1]) == digests[1]
        reopened.close()
        assert pack.read_bytes()[:len(data)] == bytes(data)
        again = ShardStore(root, create=False)
        for digest, graph in zip(digests + [extra],
                                 graphs + [make_graph(5)]):
            assert dumps_graph(again.get(digest, verify=True)) == \
                dumps_graph(graph)
        assert again.order() == digests + [digests[1]]

    def test_concurrent_appends_land_once(self, tmp_path):
        root = tmp_path / "store"
        ShardStore(root).close()
        context = multiprocessing.get_context("spawn")
        # More writers than cores open the store, then race through
        # the same shared digests in the same order before their own.
        writers = 4
        start = context.Barrier(writers)
        shared = list(range(1, 51))
        sets = [shared + list(range(51 + 10 * w, 61 + 10 * w))
                for w in range(writers)]
        workers = [context.Process(target=put_objects,
                                   args=(str(root), capacities, start))
                   for capacities in sets]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(60)
            assert not worker.is_alive() and worker.exitcode == 0
        expected = {graph_digest(make_graph(c)): make_graph(c)
                    for c in range(1, 51 + 10 * writers)}
        digests = [d for _, d, _, _ in pack_records(root)]
        assert sorted(digests) == sorted(expected)
        store = ShardStore(root, create=False)
        for digest, graph in expected.items():
            assert dumps_graph(store.get(digest)) == dumps_graph(graph)

    def test_put_hit_makes_no_stat_call(self, tmp_path, monkeypatch):
        store = ShardStore(tmp_path / "store")
        graph = make_graph()
        text = dumps_graph(graph)
        store.put(graph)

        def forbidden(*args, **kwargs):
            raise AssertionError("filesystem metadata call on a put hit")

        for name in ("stat", "lstat", "fstat"):
            monkeypatch.setattr(os, name, forbidden)
        monkeypatch.setattr(os.path, "exists", forbidden)
        store.put(graph)
        store.put_text(text)
        store.put_object(graph)
        store.put_object_text(text)
        monkeypatch.undo()
        assert len(store) == 3 and store.distinct == 1

    def test_reads_and_stats_after_close(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        graph = make_graph(capacity=7)
        digest = store.put(graph)
        store.put(graph)
        store.close()
        assert dumps_graph(store.get(digest, verify=True)) == \
            dumps_graph(graph)
        assert store.meta(digest)["source_cap"] == 7
        assert store.has(digest)
        assert store.order() == [digest, digest]
        assert store.distinct == 1
        assert store.stats() == {"runs": 2, "distinct": 1,
                                 "bytes": len(blob_of(graph))}

    def test_descriptors_read_only_until_append_and_closed(self, tmp_path):
        root = tmp_path / "store"
        graph = make_graph()
        with ShardStore(root) as store:
            digest = store.put(graph)
        if pack_descriptors(root) is None:
            pytest.skip("needs /proc/self/fd")
        assert pack_descriptors(root) == []
        store = ShardStore(root, create=False)
        store.get(digest)
        store.stats()
        assert pack_descriptors(root) == ["r"]
        store.put(make_graph(2))
        assert pack_descriptors(root) == ["r", "w"]
        store.close()
        assert pack_descriptors(root) == []
        store.get(digest)
        store.has("0" * 64)
        assert pack_descriptors(root) == []
        # Reading a store without a pack does not create one.
        empty = tmp_path / "empty"
        ShardStore(empty).close()
        with ShardStore(empty, create=False) as store:
            assert store.stats()["bytes"] == 0
            assert not store.has(digest)
        assert os.listdir(empty / "objects") == []


class TestMetrics:
    def test_store_metrics_catalogued_and_counted(self, tmp_path):
        obs.enable()
        try:
            store = ShardStore(tmp_path / "store")
            g1, g2 = make_graph(1), make_graph(2)
            store.put(g1), store.put(g2), store.put(g1)
            store.put_object(make_graph(3))
            snapshot = obs.get_metrics().snapshot()
        finally:
            obs.disable()
        assert snapshot["store.shards_written"] == 3
        assert snapshot["store.dedup_hits"] == 1
        assert snapshot["store.bytes"] > 0

    def test_every_hit_records_one_dedup_event(self, tmp_path):
        root = tmp_path / "store"
        g1, g2 = make_graph(1), make_graph(2)
        text = dumps_graph(g1)
        obs.enable()
        log = obs.enable_events()
        try:
            store = ShardStore(root)
            d1, d2 = store.put(g1), store.put(g2)
            store.put(g1), store.put_text("".join(list(text)))
            store.put_object(g2), store.put_object_text(text)
            # A second instance hits through the index, not its memo.
            with ShardStore(root, create=False) as other:
                other.put(g1)
            store.close()
            events = log.snapshot()
            snapshot = obs.get_metrics().snapshot()
        finally:
            obs.disable_events()
            obs.disable()
        assert [(e["event"], e["digest"]) for e in events] == \
            [("store.dedup", d) for d in (d1, d1, d2, d1, d1)]
        assert snapshot["store.dedup_hits"] == 5
        assert snapshot["store.shards_written"] == 2

    def test_disabled_event_log_is_never_called_on_a_hit(self, tmp_path):
        class RaisingLog(NullEventLog):
            def event(self, name, **fields):
                raise AssertionError("disabled event log called: %s" % name)

        store = ShardStore(tmp_path / "store")
        graph = make_graph()
        text = dumps_graph(graph)
        store.put(graph)
        previous = obs.set_event_log(RaisingLog())
        try:
            store.put(graph), store.put_text(text)
            store.put_object(graph), store.put_object_text(text)
            with ShardStore(tmp_path / "store", create=False) as other:
                other.put_text(text)
        finally:
            obs.set_event_log(previous)
        assert len(store) == 3 and store.distinct == 1
        store.close()


def random_graph(rng):
    graph = FlowGraph()
    width = rng.randrange(1, 4)
    layer1 = [graph.add_node() for _ in range(width)]
    layer2 = [graph.add_node() for _ in range(width)]
    for i in range(width):
        graph.add_edge(graph.SOURCE, layer1[i], rng.choice([1, 8, 64, INF]))
        graph.add_edge(layer2[i], graph.SINK, rng.choice([1, 8, 64, INF]))
        for _ in range(rng.randrange(1, 4)):
            context = rng.randrange(4) if rng.random() < 0.5 else None
            graph.add_edge(layer1[i], layer2[rng.randrange(width)],
                           rng.choice([1, 2, 8]),
                           label=EdgeLabel("prog.fl:%d" % i, context,
                                           rng.choice(["data", "implicit"])))
    return graph


def fields(graph):
    """Everything a loaded graph carries, for exact comparison."""
    return (graph.num_nodes,
            [(e.tail, e.head, e.capacity, None if e.label is None
              else (e.label.kind, e.label.location, e.label.context))
             for e in graph.edges],
            getattr(graph, "category_edges", None))


class TestTextBlob:
    """The pack blob is the canonical text: ``get`` returns exactly
    what ``load_graph`` makes of it, and no damage to a blob under a
    valid CRC surfaces as anything but ``GraphError`` (``StoreError``
    under ``verify=True``)."""

    def round_trip(self, tmp_path, graph, category_edges=None):
        text = dumps_graph(graph, category_edges=category_edges)
        with ShardStore(tmp_path / "store") as store:
            digest = store.put(graph, category_edges=category_edges)
            assert digest == hashlib.sha256(text.encode()).hexdigest()
            assert store.put_text(text) == digest
            assert [b for _, d, _, b in pack_records(tmp_path / "store")
                    if d == digest] == [text.encode("utf-8")]
            loaded = store.get(digest, verify=True)
        assert fields(loaded) == fields(load_graph(io.StringIO(text)))
        assert dumps_graph(loaded) == text
        return loaded

    def stored(self, tmp_path, blob):
        """A store whose one record holds ``blob`` (CRC valid) under
        the digest of :func:`make_graph`; returns store and digest."""
        digest = graph_digest(make_graph())
        pack = tmp_path / "store" / "objects" / "pack"
        pack.parent.mkdir(parents=True, exist_ok=True)
        pack.write_bytes(record_bytes(digest, b"{}", blob))
        return ShardStore(tmp_path / "store", create=False), digest

    def outcome(self, tmp_path, blob):
        """``get`` of a damaged blob: ``"ok"`` or ``"graph-error"``;
        any other exception fails the test, and ``verify=True`` must
        raise ``StoreError``."""
        store, digest = self.stored(tmp_path, blob)
        with store:
            with pytest.raises(StoreError, match="hashes to"):
                store.get(digest, verify=True)
            try:
                store.get(digest)
            except GraphError:
                return "graph-error"
        return "ok"

    def blob(self):
        graph = random_graph(random.Random(17))
        return dumps_graph(graph, category_edges={"alice": [0]}) \
            .encode("utf-8")

    def test_structure_and_labels_preserved(self, tmp_path):
        g = FlowGraph()
        a = g.add_node()
        g.add_edge(g.SOURCE, a, 7,
                   EdgeLabel("file.fl:7(main+2)", 12345, "implicit"))
        g.add_edge(a, g.SINK, INF)
        loaded = self.round_trip(tmp_path, g)
        assert loaded.num_nodes == g.num_nodes
        label = loaded.edges[0].label
        assert (label.kind, label.location, label.context) == \
            ("implicit", "file.fl:7(main+2)", 12345)
        assert loaded.edges[1].label is None

    def test_random_graphs_round_trip(self, tmp_path):
        rng = random.Random(7)
        for index in range(50):
            graph = random_graph(rng)
            loaded = self.round_trip(tmp_path / str(index), graph)
            assert graph_digest(loaded) == graph_digest(graph)

    def test_category_records_round_trip(self, tmp_path):
        g = FlowGraph()
        a = g.add_node()
        g.add_edge(g.SOURCE, a, 8)
        g.add_edge(a, g.SINK, 8)
        loaded = self.round_trip(tmp_path, g, category_edges={"alice": [0]})
        assert loaded.category_edges == {"alice": [0]}

    def test_capacity_saturates_at_inf(self, tmp_path):
        g = FlowGraph()
        g.add_edge(g.SOURCE, g.SINK, INF * 3)
        assert self.round_trip(tmp_path, g).edges[0].capacity == INF

    def test_control_characters_in_names_sanitized(self, tmp_path):
        g = FlowGraph()
        g.add_edge(g.SOURCE, g.SINK, 1,
                   EdgeLabel("has\ttab\nand\r\nbreaks", None, "data"))
        loaded = self.round_trip(tmp_path, g,
                                 category_edges={"al\nice\t": [0]})
        assert loaded.edges[0].label.location == "has tab and  breaks"
        assert loaded.category_edges == {"al ice ": [0]}

    def test_non_ascii_location_round_trips(self, tmp_path):
        g = FlowGraph()
        g.add_edge(g.SOURCE, g.SINK, 2, EdgeLabel("prüfung.fl:3 ✓", 9, "data"))
        loaded = self.round_trip(tmp_path, g)
        assert loaded.edges[0].label.location == "prüfung.fl:3 ✓"

    def test_non_utf8_blob_rejected(self, tmp_path):
        store, digest = self.stored(tmp_path,
                                    b"flowgraph-v1\nn\t2\ne\t0\t1\t4\tdata"
                                    b"\t\xff\xfe\t-\n")
        with store, pytest.raises(GraphError, match="UTF-8"):
            store.get(digest)

    def test_empty_blob_rejected(self, tmp_path):
        store, digest = self.stored(tmp_path, b"")
        with store, pytest.raises(GraphError):
            store.get(digest)

    def test_blob_without_header_rejected(self, tmp_path):
        store, digest = self.stored(tmp_path, b"not a shard at all")
        with store, pytest.raises(GraphError, match="flowgraph-v1"):
            store.get(digest)

    def test_unknown_record_names_the_line(self, tmp_path):
        store, digest = self.stored(tmp_path,
                                    blob_of(make_graph()) + b"Z\t0\n")
        with store, pytest.raises(GraphError, match="line 5"):
            store.get(digest)

    def test_out_of_range_edge_endpoint_rejected(self, tmp_path):
        text = blob_of(make_graph())
        assert b"\nn\t3\n" in text
        store, digest = self.stored(tmp_path,
                                    text.replace(b"\nn\t3\n", b"\nn\t2\n"))
        with store, pytest.raises(GraphError):
            store.get(digest)

    def test_category_index_out_of_range_rejected(self, tmp_path):
        store, digest = self.stored(tmp_path,
                                    blob_of(make_graph()) + b"c\talice\t99\n")
        with store, pytest.raises(GraphError, match="alice"):
            store.get(digest)

    def test_every_byte_truncation(self, tmp_path):
        blob = self.blob()
        outcomes = {"ok": 0, "graph-error": 0}
        for end in range(len(blob)):
            outcomes[self.outcome(tmp_path, blob[:end])] += 1
        # A text cut can still parse (at a line end, or mid-number);
        # only verify=True, which hashes the blob, catches every one.
        assert outcomes["graph-error"] > len(blob) * 0.75

    def test_random_byte_flips(self, tmp_path):
        blob = self.blob()
        rng = random.Random(23)
        for _ in range(500):
            corrupted = bytearray(blob)
            position = rng.randrange(len(corrupted))
            corrupted[position] ^= 1 << rng.randrange(8)
            self.outcome(tmp_path, bytes(corrupted))

    def test_random_splices(self, tmp_path):
        blob = self.blob()
        rng = random.Random(29)
        for _ in range(200):
            lo = rng.randrange(len(blob))
            hi = rng.randrange(lo, min(len(blob), lo + 32) + 1)
            junk = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(8)))
            spliced = blob[:lo] + junk + blob[hi:]
            if spliced != blob:
                self.outcome(tmp_path, spliced)
