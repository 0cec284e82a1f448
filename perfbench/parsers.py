"""Parsers for the summary lines the hdsky tools print.

hdsky_serve prints `served`, `cache`, `backend` and (paged) `pool` lines
to stderr when it stops; hdsky_discover prints `queries` to stdout and
`journal` and `network` lines to stderr.
The traced driver prints the same lines, so one parser serves both.
"""

import re

_INT = r"(\d+)"

_PATTERNS = {
    "served": re.compile(
        r"^served  : %s queries \(%s replayed, %s budget rejections, %s busy\)"
        r" over %s connections \(%s rejected, %s shed\)$" % ((_INT,) * 7)),
    "cache": re.compile(
        r"^cache   : %s hits, %s single-flight joins, %s backend executions$"
        % ((_INT,) * 3)),
    "backend": re.compile(
        r"^backend : %s queries issued, %s tuples returned$" % ((_INT,) * 2)),
    "pool": re.compile(
        r"^pool    : (\w+) path, %s hits, %s misses, %s loads, %s evictions, "
        r"%s prefetched \(%s hit\), %s bytes read, %s resident bytes$"
        % ((_INT,) * 8)),
    "journal": re.compile(
        r"^journal : %s replayed, %s paid, %s errors, epoch %s$"
        % ((_INT,) * 4)),
    "network": re.compile(
        r"^network : (?:(\S+)  )?%s remote queries, %s retries, %s reconnects, "
        r"%s rate-limited, (?:%s failed, )?%s B out, %s B in, %s ms backoff$"
        % ((_INT,) * 8)),
    "queries": re.compile(r"^queries : %s(?:  \(.*\))?$" % _INT),
    "fed_queries": re.compile(
        r"^queries : %s paid, %s answered free from the shared index, "
        r"%s rounds$" % ((_INT,) * 3)),
}

_FIELDS = {
    "served": ("queries", "replayed", "budget_rejections", "busy",
               "connections", "rejected", "shed"),
    "cache": ("hits", "joins", "executions"),
    "backend": ("queries", "tuples"),
    "pool": ("path", "hits", "misses", "loads", "evictions", "prefetched",
             "prefetch_hits", "bytes_read", "resident_bytes"),
    "journal": ("replayed", "paid", "errors", "epoch"),
    "network": ("endpoint", "queries", "retries", "reconnects",
                "rate_limited", "failed", "bytes_out", "bytes_in",
                "backoff_ms"),
    "queries": ("paid",),
    "fed_queries": ("paid", "pruned", "rounds"),
}


def _convert(value):
    if value is None:
        return 0
    return int(value) if value.isdigit() else value


def parse_summary(text):
    """Maps each summary kind to a list of dicts, one per matching line."""
    out = {}
    for line in text.splitlines():
        line = line.rstrip()
        for kind, pattern in _PATTERNS.items():
            m = pattern.match(line)
            if m:
                out.setdefault(kind, []).append(
                    dict(zip(_FIELDS[kind], map(_convert, m.groups()))))
                break
    return out


def one(summary, kind):
    """The single line of `kind`; raises if it is missing or repeated."""
    lines = summary.get(kind, [])
    if len(lines) != 1:
        raise ValueError("expected one %r summary line, got %d" %
                         (kind, len(lines)))
    return lines[0]


def total(summary, kind, field):
    """Sum of `field` over every line of `kind` (0 when there is none)."""
    return sum(line[field] for line in summary.get(kind, []))
