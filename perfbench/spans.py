"""Span arithmetic for the traced run.

The traced driver writes one span per line:

    <id> <parent> <name> <backend> <ordinal> <key> <start_ns> <end_ns>

`parent` is -1 for a root, `backend` the index of the backend connection,
`ordinal` the 1-based number of the call at that boundary and `key` a hash
of the query (both 0 when the span is not a query). Both processes time
with CLOCK_MONOTONIC, so client and server spans lie on one timeline;
`link` makes each server span a child of the client call it answered.

A span's self time is its duration minus the part of its interval that its
children cover.
"""

from collections import namedtuple

Span = namedtuple("Span", "id parent name backend ordinal key start end")


def read_spans(path, id_offset=0, backend=None):
    """Reads a span file; ids (and parents) are shifted by id_offset and
    the backend index is overridden when `backend` is given."""
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, name, b, ordinal, key, start, end = line.split()
            parent = int(parent)
            spans.append(Span(int(sid) + id_offset,
                              parent + id_offset if parent >= 0 else -1,
                              name, int(b) if backend is None else backend,
                              int(ordinal), int(key), int(start), int(end)))
    return spans


def union_length(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def link(client, server, child_name="interface.execute",
         parent_name="net.execute"):
    """Re-parents each server span under the client call it answered.

    A server executes one connection's queries in the order they were
    sent, but its shared cache answers a repeated query without executing
    it. So, per backend, the client calls are walked in order and each is
    paired with the next server execution when their query keys agree; a
    call with no execution is a cache hit. Returns the linked server
    spans; raises when a server execution is left unpaired."""
    calls = {}
    for s in sorted(client, key=lambda s: s.ordinal):
        if s.name == parent_name:
            calls.setdefault(s.backend, []).append(s)
    execs = {}
    for s in sorted(server, key=lambda s: s.ordinal):
        if s.name == child_name:
            execs.setdefault(s.backend, []).append(s)
    linked = []
    for backend, spans in execs.items():
        pending = iter(spans)
        nxt = next(pending, None)
        for call in calls.get(backend, ()):
            if nxt is not None and nxt.key == call.key:
                linked.append(nxt._replace(parent=call.id))
                nxt = next(pending, None)
        if nxt is not None:
            raise ValueError("server execution %d on backend %d matches no "
                             "client call" % (nxt.ordinal, backend))
    return linked


def self_times(spans):
    """Maps span id -> self time: duration minus the union of its
    children's intervals, each clipped to the span."""
    children = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - union_length(clipped)
    return out


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def coverage(spans, selfs):
    """Sum of self times over the traced time.

    The traced time is the root's duration plus the time its children
    spend overlapping one another (parallel backend calls), so spans that
    nest cleanly give exactly 1.0; a child that leaks out of its parent,
    or a server span that does not fit inside its client call, moves it.
    """
    roots = [s for s in spans if s.parent < 0]
    if len(roots) != 1:
        raise ValueError("expected one root span, got %d" % len(roots))
    root = roots[0]
    top = [(s.start, s.end) for s in spans if s.parent == root.id]
    overlap = sum(e - s for s, e in top) - union_length(top)
    return sum(selfs.values()) / float(root.end - root.start + overlap)
