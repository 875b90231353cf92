"""Flow-graph persistence.

The paper's tool can emit each edge "immediately, as an ordered pair of
node tags" so that memory use stays bounded by the program's footprint
(§4.2).  This module provides the equivalent artifact boundary for this
reproduction: a compact, line-oriented text format for graphs (and
their labels), so a trace captured in one process can be solved,
collapsed, combined, or rendered in another.  It is the only encoding:
batch workers ship it home, the shard store keeps it as its pack blob,
and every content digest is defined over it.

Format (one record per line, tab-separated)::

    flowgraph-v1
    n\t<num_nodes>
    e\t<tail>\t<head>\t<capacity|inf>[\t<kind>\t<location>\t<context|->]
    c\t<category>\t<edge_index>...

A tab, newline or carriage return inside a location or a category name
is written as a space, so every record stays one line of the right
field count.  ``c`` records are optional and carry the Section 10.1
multi-secret category tags: each maps a secret category to the indices
of its source edges (``TraceBuilder.category_edges``), so a tagged
graph shipped to another process can still be swept per-category
there.
"""

from __future__ import annotations

import hashlib
import io

from ..errors import GraphError
from .flowgraph import INF, EdgeLabel, FlowGraph

_HEADER = "flowgraph-v1"


def _field(value):
    """``value`` as one text field: no tab, newline or carriage return."""
    return str(value).replace("\t", " ").replace("\n", " ") \
        .replace("\r", " ")


def dump_graph(graph, stream, category_edges=None):
    """Write ``graph`` to a text ``stream``; returns the edge count.

    ``category_edges`` (a mapping category -> source-edge indices, as
    kept by ``TraceBuilder.category_edges``) is written as ``c``
    records; when omitted, a ``category_edges`` attribute on the graph
    itself (as attached by :func:`load_graph`) is used, so save → load →
    save round trips preserve the tags without replumbing.
    """
    if category_edges is None:
        category_edges = getattr(graph, "category_edges", None)
    stream.write(_HEADER + "\n")
    stream.write("n\t%d\n" % graph.num_nodes)
    for e in graph.edges:
        capacity = "inf" if e.capacity >= INF else str(e.capacity)
        if e.label is None:
            stream.write("e\t%d\t%d\t%s\n" % (e.tail, e.head, capacity))
        else:
            context = "-" if e.label.context is None \
                else str(e.label.context)
            stream.write("e\t%d\t%d\t%s\t%s\t%s\t%s\n" % (
                e.tail, e.head, capacity, e.label.kind,
                _field(e.label.location), context))
    for category in sorted(category_edges or (), key=str):
        indices = category_edges[category]
        stream.write("c\t%s\t%s\n" % (
            _field(category),
            "\t".join(str(index) for index in indices)))
    return graph.num_edges


def load_graph(stream):
    """Read a graph written by :func:`dump_graph`.

    Labels come back with *string* locations (the human-readable
    rendering); that is exactly what collapsing and cut policies key
    on, so save/collapse/measure pipelines are unaffected.  Any ``c``
    records come back as a ``category_edges`` attribute on the graph
    (absent when the dump carried no tags).

    Robustness contract: *any* malformed input — truncated lines,
    non-integer fields, out-of-range node references, a missing header
    — raises :class:`~repro.errors.GraphError` carrying the offending
    line number, never a bare ``ValueError``/``IndexError``.  Batch
    parents rely on this to classify a corrupt graph shipped home from
    a worker as a job failure instead of crashing the merge.
    """
    header = stream.readline().strip()
    if header != _HEADER:
        raise GraphError("not a %s file (got %r)" % (_HEADER, header))
    graph = FlowGraph()
    categories = {}
    for line_number, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        try:
            if fields[0] == "n":
                if len(fields) != 2:
                    raise GraphError("node record has %d fields, want 2"
                                     % len(fields))
                declared = int(fields[1])
                if declared < graph.num_nodes:
                    raise GraphError("node count too small")
                graph.add_nodes(declared - graph.num_nodes)
            elif fields[0] == "e":
                if len(fields) not in (4, 7):
                    raise GraphError("edge record has %d fields, "
                                     "want 4 (unlabelled) or 7 (labelled)"
                                     % len(fields))
                tail, head = int(fields[1]), int(fields[2])
                capacity = INF if fields[3] == "inf" else int(fields[3])
                label = None
                if len(fields) > 4:
                    context = None if fields[6] == "-" else int(fields[6])
                    label = EdgeLabel(fields[5], context, fields[4])
                graph.add_edge(tail, head, capacity, label)
            elif fields[0] == "c":
                if len(fields) < 2 or not fields[1]:
                    raise GraphError("category record without a name")
                categories[fields[1]] = [int(index)
                                         for index in fields[2:]]
            else:
                raise GraphError("bad record %r" % fields[0])
        except GraphError as error:
            raise GraphError("%s at line %d" % (error, line_number)) \
                from None
        except (ValueError, IndexError) as error:
            raise GraphError("malformed %r record at line %d: %s"
                             % (fields[0], line_number, error)) from None
    if categories:
        for category, indices in categories.items():
            for index in indices:
                if not 0 <= index < graph.num_edges:
                    raise GraphError(
                        "category %r references edge %d, but the graph "
                        "has %d edges" % (category, index,
                                          graph.num_edges))
        graph.category_edges = categories
    return graph


def save_graph(path, graph):
    """:func:`dump_graph` to a file path; returns the path."""
    with open(path, "w") as handle:
        dump_graph(graph, handle)
    return path


def read_graph(path):
    """:func:`load_graph` from a file path."""
    with open(path) as handle:
        return load_graph(handle)


# ----------------------------------------------------------------------
# Canonical digest

def dumps_graph(graph, category_edges=None):
    """The canonical ``flowgraph-v1`` text of ``graph``, as a string."""
    buffer = io.StringIO()
    dump_graph(graph, buffer, category_edges=category_edges)
    return buffer.getvalue()


def graph_digest(graph, category_edges=None):
    """Canonical content digest of a graph: SHA-256 over its
    ``flowgraph-v1`` text dump, as a hex string.

    The text format is the *canonical* encoding, and the digest is
    defined over it.  Two graphs with equal digests are bit-identical under
    save/load (same node numbering, edge order, capacities, labels, and
    category tags), which is what lets
    :class:`~repro.store.ShardStore` dedup identical collapsed shards
    to a multiplicity counter.
    """
    return text_digest(dumps_graph(graph, category_edges=category_edges))


def text_digest(text):
    """:func:`graph_digest` of a graph already in canonical text form."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
