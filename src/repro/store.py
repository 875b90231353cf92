"""Content-addressed shard store for corpus-scale combining.

The §3.2 multi-run combine turns per-run flow graphs into one
Kraft-sound corpus bound.  At millions of runs the interesting fact is
that most runs of the same program at the same coverage *collapse
identically* — so the corpus is tiny once content-addressed.  A
:class:`ShardStore` keeps each distinct collapsed ``flowgraph-v1``
shard exactly once on disk, keyed by its canonical digest
(:func:`~repro.graph.serialize.graph_digest`: SHA-256 over the
canonical text form, independent of the on-disk framing), and records
every put in an append-only manifest so the corpus is just an ordered
list of digests with multiplicities.

Layout under the store root::

    manifest        one digest per line, in put order (append-only)
    objects/pack    every stored object, one record each (append-only)

A pack record is::

    magic "FGP2" | crc32:u32 | digest:32 bytes | meta_len:u32 |
    blob_len:u32 | metadata JSON | blob

(integers big-endian; the CRC covers everything after itself).  The
metadata holds the sizes, structural cut capacities and dedup safety
that the incremental Kraft accounting reads without loading the blob;
the blob is the shard's canonical ``flowgraph-v1`` text in UTF-8, the
very bytes its digest hashes, so ``sha256(blob)`` is the record's
digest.  Opening a store scans the pack once into an in-memory
``{digest: record}`` index, and each instance memoises the digest of
every text it put, so a dedup hit of a text the instance has seen
costs a dict probe, not a hash, and one manifest ``write``; the first
put of a text through an instance hashes it once.
:meth:`ShardStore.meta` reads memory.

Crash contract.  A record that is short or fails its magic or CRC
check is never indexed.  When a whole record follows it, the scan
skips ahead to that record, so damage in the middle of the pack costs
only the damaged record (``get`` of its digest raises
:class:`~repro.errors.StoreError`; a later put of the same shard
appends a fresh copy).  When none follows, it starts a torn tail,
which stays invisible.  Appends take an exclusive ``flock`` on the
pack, catch the index up to the end of the file, and truncate a torn
tail before writing — under the lock, a tail can only come from a
writer that died — so pool workers may append intermediate merge
results from their own store instances while the parent reads.
``flock`` locks belong to an open file description, so each
:class:`ShardStore` opens its own, and an instance must not be used on
both sides of a ``fork``: open a new one in the child.  Reads go
through a read-only descriptor; only the first append opens the pack
for writing (creating it), so a store on a read-only mount can still
be read.  Neither the pack nor the manifest is fsynced; a caller that
needs a durable commit point keeps its own fsynced journal (the
measurement service's ``progress.jsonl``).

The *manifest* has a single writer — the parent process that owns the
corpus — and is a :class:`~repro.durable.LineLog` (not fsynced), so a
crash can tear at most the final line.  A torn or corrupt manifest
line (an unterminated tail is one, even a whole digest) is
**recovered**, not fatal: a line whose hex prefix matches exactly one
object in the pack is repaired to that digest; anything else is
dropped (the object, if any, stays in the pack — content addressing
makes orphans harmless).  The repaired manifest is rewritten with
:func:`~repro.durable.atomic_write` and the store notes what happened
on :attr:`ShardStore.recovered` (and as a ``store.recovered`` event),
so a daemon restarting over a kill-9-interrupted ingest reopens the
corpus instead of raising.

Other corrupt store structure — a pack record whose CRC no longer
matches, a root in the old one-file-per-shard layout, a pack of
``FGP1`` records (the old binary-blob layout, refused before anything
is written to it) — raises :class:`~repro.errors.StoreError`; corrupt
graph payloads, a blob that is not UTF-8 included, keep raising
:class:`~repro.errors.GraphError`, exactly as every other loader in
the package.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import json
import os
import re
import struct
import zlib

from . import obs
from .durable import LineLog, atomic_write, read_lines
from .errors import GraphError, StoreError
from .graph.collapse import dedup_safe
from .graph.serialize import dumps_graph, load_graph, text_digest

_DIGEST = re.compile(r"^[0-9a-f]{64}$")
_MANIFEST = "manifest"
_OBJECTS = "objects"
_PACK = "pack"
_PACK_MAGIC = b"FGP2"
#: the magic of the old pack layout, whose blobs were a binary framing
_OLD_PACK_MAGIC = b"FGP1"
#: magic, crc32, raw digest, metadata length, blob length
_RECORD = struct.Struct(">4sI32sII")


def _shard_meta(graph):
    """The per-shard metadata the combine layer needs without loading
    the blob: sizes for :class:`~repro.graph.collapse.CollapseStats`,
    structural cut capacities for
    :class:`~repro.core.combine.IncrementalKraft`, dedup safety for the
    multiplicity fold."""
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "source_cap": graph.source_capacity(),
        "sink_cap": graph.sink_capacity(),
        "dedup_safe_context": dedup_safe(graph, context_sensitive=True),
        "dedup_safe_location": dedup_safe(graph, context_sensitive=False),
    }


def _record_crc(head, body):
    """A record's CRC32: everything after the CRC field of its header
    ``head``, then its metadata and blob ``body``."""
    return zlib.crc32(body, zlib.crc32(memoryview(head)[8:]))


def _read_record(fd, offset, size):
    """The record at ``offset`` of a ``size``-byte pack as ``(raw
    digest, metadata length, blob length, metadata JSON bytes)``, or
    ``None`` unless it is whole and its magic and CRC check."""
    head = os.pread(fd, _RECORD.size, offset)
    if len(head) < _RECORD.size:
        return None
    magic, crc, raw, meta_len, blob_len = _RECORD.unpack(head)
    if magic != _PACK_MAGIC \
            or offset + _RECORD.size + meta_len + blob_len > size:
        return None
    body = os.pread(fd, meta_len + blob_len, offset + _RECORD.size)
    if len(body) < meta_len + blob_len or _record_crc(head, body) != crc:
        return None
    return raw, meta_len, blob_len, body[:meta_len]


def _next_record(fd, start, size, window=1 << 20):
    """The offset of the first whole record at or after ``start``, or
    ``None``: a search for the magic, each hit checked as a record."""
    while start + _RECORD.size <= size:
        chunk = os.pread(fd, min(window + len(_PACK_MAGIC) - 1,
                                 size - start), start)
        hit = chunk.find(_PACK_MAGIC)
        while hit != -1:
            if _read_record(fd, start + hit, size) is not None:
                return start + hit
            hit = chunk.find(_PACK_MAGIC, hit + 1)
        start += window
    return None


class ShardStore:
    """A content-addressed, dedup-ing, on-disk corpus of graph shards.

    ``put`` appends a run to the corpus (appending its object to the
    pack only the first time its digest is seen); ``put_object``
    stores an object *without* a manifest entry, which the
    tree-reduction merge uses to pass intermediate combined graphs
    between workers by reference.  All order-sensitive views
    (:meth:`order`, :meth:`multiplicities`) follow manifest order, so a
    store-backed combine can reproduce the plain fold's input order
    bit-for-bit.

    Each instance holds its own pack file descriptor (the append lock
    is per open file description): do not share an instance across
    ``fork``.  Reads, :meth:`stats` and the corpus views stay valid
    after :meth:`close`.
    """

    def __init__(self, root, create=True):
        self._manifest_handle = None
        self._reader = self._writer = None
        self._closed = False
        #: canonical text -> digest of every text this instance put
        self._digests = {}
        self.root = os.fspath(root)
        self._objects = os.path.join(self.root, _OBJECTS)
        self._manifest_path = os.path.join(self.root, _MANIFEST)
        self._pack_path = os.path.join(self._objects, _PACK)
        if create:
            os.makedirs(self._objects, exist_ok=True)
        elif not os.path.isdir(self._objects):
            raise StoreError("not a shard store (no %s/ directory): %s"
                             % (_OBJECTS, self.root))
        #: digest -> (record offset, metadata length, blob length, meta);
        #: ``meta`` is the record's JSON bytes until :meth:`meta` parses it
        self._index = {}
        self._end = 0  # end of the last whole record indexed
        size = self._scan()
        if size is None and any(
                name.endswith(".fgb") for name in os.listdir(self._objects)):
            raise StoreError("%s uses the old one-file-per-shard layout "
                             "(objects/<digest>.fgb + .json); this version "
                             "reads only objects/pack" % self.root)
        if size:
            with self._pack() as fd:
                old = os.pread(fd, len(_OLD_PACK_MAGIC), 0)
            if old == _OLD_PACK_MAGIC:
                raise StoreError("%s holds FGP1 records, the old "
                                 "binary-blob pack layout; this version "
                                 "reads only FGP2 packs of canonical text"
                                 % self._pack_path)
        self._order = []
        self._counts = {}
        #: ``{"repaired": n, "dropped": m}`` when opening this store had
        #: to recover from corrupt manifest lines, else ``None``.
        self.recovered = None
        if os.path.exists(self._manifest_path):
            self._load_manifest()

    # ------------------------------------------------------------------
    # Pack

    @contextlib.contextmanager
    def _pack(self, writer=False):
        """A descriptor on the pack: this instance's own, opened on
        first use (read-only, or append-only for ``writer``, which
        creates the pack), or after :meth:`close` a transient one.
        Raises ``FileNotFoundError`` for a reader while there is no
        pack."""
        name = "_writer" if writer else "_reader"
        handle = getattr(self, name)
        if handle is None:
            handle = open(self._pack_path, "ab" if writer else "rb",
                          buffering=0)
            if not self._closed:
                setattr(self, name, handle)
        try:
            yield handle.fileno()
        finally:
            if self._closed:
                handle.close()

    def _scan(self):
        """Index every whole record past the indexed end; returns the
        pack's size (larger than the new end when a torn tail follows),
        or ``None`` while there is no pack.

        A damaged record is skipped, not indexed, when a whole record
        follows it somewhere in the pack, so damage in the middle loses
        only that record; with no whole record after it, it starts the
        torn tail."""
        try:
            with self._pack() as fd:
                size = os.fstat(fd).st_size
                offset = self._end
                while offset < size:
                    record = _read_record(fd, offset, size)
                    if record is None:
                        offset = _next_record(fd, offset + 1, size)
                        if offset is None:
                            break
                        continue
                    raw, meta_len, blob_len, meta = record
                    self._index.setdefault(raw.hex(),
                                           (offset, meta_len, blob_len, meta))
                    offset += _RECORD.size + meta_len + blob_len
                    self._end = offset
        except FileNotFoundError:
            return None
        return size

    def _lookup(self, digest):
        """The index entry for ``digest``, catching up on records other
        instances appended since the last scan; ``None`` if absent."""
        entry = self._index.get(digest)
        if entry is None:
            self._scan()
            entry = self._index.get(digest)
        return entry

    def _append(self, digest, text, graph):
        """Append the record of the shard whose canonical text is
        ``text`` under the pack lock; returns whether it was written
        (not when another writer got there first).

        ``graph`` is the parsed shard, or ``None`` to parse ``text``
        (hardened loader: corrupt text raises
        :class:`~repro.errors.GraphError`) for its metadata."""
        if graph is None:
            graph = load_graph(io.StringIO(text))
        blob = text.encode("utf-8")
        meta = _shard_meta(graph)
        meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
        fields = (bytes.fromhex(digest), len(meta_bytes), len(blob))
        body = meta_bytes + blob
        crc = _record_crc(_RECORD.pack(_PACK_MAGIC, 0, *fields), body)
        record = _RECORD.pack(_PACK_MAGIC, crc, *fields) + body
        with self._pack(writer=True) as fd:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                size = self._scan()
                if size < self._end:
                    raise StoreError("pack %s shrank below records this "
                                     "store had indexed" % self._pack_path)
                if size > self._end:
                    os.ftruncate(fd, self._end)
                if digest in self._index:
                    return False
                offset = self._end
                view = memoryview(record)
                while view:
                    view = view[os.write(fd, view):]
                self._end = offset + len(record)
                self._index[digest] = (offset, len(meta_bytes), len(blob),
                                       meta)
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        metrics = obs.get_metrics()
        if metrics.enabled:
            metrics.incr("store.shards_written")
            metrics.incr("store.bytes", len(blob))
        return True

    # ------------------------------------------------------------------
    # Manifest

    def _load_manifest(self):
        self._order = []
        self._counts = {}
        repaired = dropped = 0
        lines, tail = read_lines(self._manifest_path)
        for index, line in enumerate(lines + [tail]):
            digest = line.strip().decode("ascii", "replace")
            if not digest:
                continue
            if index == len(lines) or not _DIGEST.match(digest):
                digest = self._recover_digest(digest)
                if digest is None:
                    dropped += 1
                    continue
                repaired += 1
            self._order.append(digest)
            self._counts[digest] = self._counts.get(digest, 0) + 1
        if repaired or dropped:
            # Rewrite the repaired manifest atomically so the damage is
            # healed on disk, not just in this process's view.
            atomic_write(self._manifest_path,
                         "".join(d + "\n" for d in self._order))
            self.recovered = {"repaired": repaired, "dropped": dropped}
            obs.get_event_log().event("store.recovered",
                                      repaired=repaired, dropped=dropped,
                                      store=self.root)

    def _recover_digest(self, fragment):
        """Repair one malformed manifest line, if the evidence allows.

        A torn append leaves a *prefix* of a real digest (up to the
        whole digest, less its newline); when that prefix is valid hex
        and matches exactly one object in the pack, the full digest is
        recovered.  Ambiguous or non-hex damage returns ``None`` (the
        line is dropped)."""
        fragment = fragment.lower()
        if not fragment or len(fragment) > 64 \
                or not re.fullmatch(r"[0-9a-f]+", fragment):
            return None
        matches = [digest for digest in self._index
                   if digest.startswith(fragment)]
        if len(matches) == 1:
            return matches[0]
        return None

    def _append_manifest(self, digest):
        # One persistent log handle: a corpus ingest is put-per-run,
        # and reopening the manifest per put dominates the dedup-hit
        # fast path.
        if self._manifest_handle is None:
            self._manifest_handle = LineLog(self._manifest_path,
                                            fsync=False)
        self._manifest_handle.append(digest + "\n")
        self._order.append(digest)
        self._counts[digest] = self._counts.get(digest, 0) + 1

    def close(self):
        """Release the manifest handle, the pack descriptors and the
        digest memo.  Reads stay valid: each then opens and closes a
        descriptor of its own."""
        self._closed = True
        self._digests = {}
        for handle in (self._manifest_handle, self._reader, self._writer):
            if handle is not None:
                handle.close()
        self._manifest_handle = self._reader = self._writer = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):
        self.close()

    # ------------------------------------------------------------------
    # Writing

    def _put(self, text, graph, manifest):
        """Store the shard whose canonical text is ``text`` unless its
        digest is already stored; returns the digest.

        ``graph`` is the parsed shard or ``None`` (see :meth:`_append`;
        text is parsed only when its digest is new).  ``manifest``
        appends a corpus entry.  A text this instance already put is a
        hit by its memoised digest (the index only grows) and costs a
        dict probe, not a hash, plus the manifest line; a first put
        hashes it.  Only a put that succeeded is memoised.
        """
        digest = self._digests.get(text)
        hit = digest is not None
        if not hit:
            digest = text_digest(text)
            hit = digest in self._index \
                or not self._append(digest, text, graph)
            self._digests[text] = digest
        if hit:
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.incr("store.dedup_hits")
            log = obs.get_event_log()
            if log.enabled:
                log.event("store.dedup", digest=digest)
        if manifest:
            self._append_manifest(digest)
        return digest

    def put(self, graph, category_edges=None):
        """Append one run's shard to the corpus; returns its digest.

        Content-addressed: an already-seen graph writes nothing but its
        manifest line and bumps the multiplicity.
        """
        return self._put(dumps_graph(graph, category_edges=category_edges),
                         graph, True)

    def put_text(self, text):
        """:meth:`put` for a shard already in canonical text form (as
        shipped home by batch workers).

        The graph is parsed (hardened loader: corrupt text raises
        :class:`~repro.errors.GraphError`, on every attempt) only when
        the digest is new; a repeated text costs a dict probe, not a
        hash, and one manifest line.
        """
        return self._put(text, None, True)

    def put_object(self, graph, category_edges=None):
        """Store a graph as a content-addressed object *without* adding
        it to the corpus; returns its digest.

        The tree-reduction merge stores each intermediate combined
        graph this way, so reduction levels exchange O(1) references
        instead of O(coverage) payloads — and identical subtree merges
        (common under heavy dedup) are written once.
        """
        return self._put(dumps_graph(graph, category_edges=category_edges),
                         graph, False)

    def put_object_text(self, text):
        """:meth:`put_object` for a shard already in canonical text form.

        Idempotent and manifest-free: the measurement service
        checkpoints each completed run's shard this way, with its own
        progress journal as the commit point, so a crash between the
        pack append and the journal append merely re-stores the same
        digest on resume — nothing is double-counted.  The text is
        parsed (hardened loader) only when the digest is new.
        """
        return self._put(text, None, False)

    # ------------------------------------------------------------------
    # Reading

    def has(self, digest):
        return self._lookup(digest) is not None

    def get(self, digest, verify=False):
        """Load a stored shard.  A record whose CRC no longer matches
        raises :class:`StoreError`, a blob that does not parse (not
        UTF-8 included) :class:`~repro.errors.GraphError`;
        ``verify=True`` first hashes the blob and raises
        :class:`StoreError` unless that is the digest (bit-rot
        detection)."""
        entry = self._lookup(digest)
        if entry is None:
            raise StoreError("no object %s in store %s"
                             % (digest, self.root))
        offset, meta_len, blob_len, _ = entry
        size = _RECORD.size + meta_len + blob_len
        with self._pack() as fd:
            record = os.pread(fd, size, offset)
        head, body = record[:_RECORD.size], record[_RECORD.size:]
        if len(record) != size or _RECORD.unpack(head)[:3] != (
                _PACK_MAGIC, _record_crc(head, body), bytes.fromhex(digest)):
            raise StoreError("object %s in store %s: pack record at "
                             "offset %d is corrupt (CRC mismatch)"
                             % (digest, self.root, offset))
        blob = body[meta_len:]
        if verify:
            actual = hashlib.sha256(blob).hexdigest()
            if actual != digest:
                raise StoreError(
                    "object %s in store %s hashes to %s: blob corrupt"
                    % (digest, self.root, actual))
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as error:
            raise GraphError("object %s in store %s: blob is not UTF-8 "
                             "text: %s" % (digest, self.root, error)) \
                from None
        return load_graph(io.StringIO(text))

    def meta(self, digest):
        """The shard's stored metadata dict (see module docstring)."""
        entry = self._lookup(digest)
        if entry is None:
            raise StoreError("no metadata for object %s in store %s"
                             % (digest, self.root))
        meta = entry[3]
        if isinstance(meta, bytes):
            meta = json.loads(meta)
            self._index[digest] = entry[:3] + (meta,)
        return dict(meta)

    # ------------------------------------------------------------------
    # Corpus views

    def __len__(self):
        """Total runs in the corpus (manifest entries, with repeats)."""
        return len(self._order)

    @property
    def distinct(self):
        """Number of distinct shards in the corpus."""
        return len(self._counts)

    def order(self):
        """Every run's digest, in put order."""
        return list(self._order)

    def multiplicities(self):
        """``(digest, count)`` pairs in first-occurrence order.

        The dedup view of the corpus: combining these with
        ``collapse_graphs(..., multiplicities=...)`` is bit-identical
        to folding :meth:`order` literally whenever every shard is
        dedup-safe.
        """
        return list(self._counts.items())

    def stats(self):
        """Summary dict for reports and the CLI; ``bytes`` sums the
        corpus shards' blobs."""
        size = sum(self._index[digest][2] for digest in self._counts
                   if digest in self._index)
        return {"runs": len(self), "distinct": self.distinct,
                "bytes": size}
