"""Tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import random
import tempfile
import unittest

import datagen
import parsers
import spans

SERVE_STDERR = """\
dataset : 50000 tuples (paged, ranking sum, pool 2400000 bytes), Schema(...)
engine  : epoll
served  : 9719 queries (0 replayed, 0 budget rejections, 2 busy) over 1 connections (0 rejected, 3 shed)
cache   : 5 hits, 0 single-flight joins, 9714 backend executions
backend : 9714 queries issued, 31577 tuples returned
pool    : pread path, 26137 hits, 3843 misses, 4057 loads, 4048 evictions, 217 prefetched (7 hit), 86476216 bytes read, 1836328 resident bytes
"""

DISCOVER_OUTPUT = """\
found   : 1455 skyline tuples
queries : 10129
cost per tuple: 6.96
wrote   : skyline.csv
journal : 0 replayed, 10129 paid, 0 errors, epoch 41
network : 10129 remote queries, 1 retries, 2 reconnects, 0 rate-limited, 1174980 B out, 2093403 B in, 0 ms backoff
"""

FEDERATED_OUTPUT = """\
federate: union over 3 backends
found   : 1486 skyline groups
queries : 14254 paid, 847 answered free from the shared index, 224 rounds
backend : 127.0.0.1:39051  paid 4806  pruned 301  confirmed 512  rounds 75  health HEALTHY  recovered 0  FULL
network : 127.0.0.1:39051  4806 remote queries, 0 retries, 0 reconnects, 0 rate-limited, 0 failed, 544984 B out, 1058100 B in, 0 ms backoff
network : 127.0.0.1:39052  4698 remote queries, 0 retries, 0 reconnects, 0 rate-limited, 0 failed, 544000 B out, 1058000 B in, 0 ms backoff
"""


class ParserTest(unittest.TestCase):
    def test_serve_summary(self):
        s = parsers.parse_summary(SERVE_STDERR)
        self.assertEqual(parsers.one(s, "served"), {
            "queries": 9719, "replayed": 0, "budget_rejections": 0,
            "busy": 2, "connections": 1, "rejected": 0, "shed": 3})
        self.assertEqual(parsers.one(s, "cache"),
                         {"hits": 5, "joins": 0, "executions": 9714})
        self.assertEqual(parsers.one(s, "backend"),
                         {"queries": 9714, "tuples": 31577})
        pool = parsers.one(s, "pool")
        self.assertEqual(pool["path"], "pread")
        self.assertEqual((pool["hits"], pool["misses"], pool["evictions"]),
                         (26137, 3843, 4048))
        self.assertEqual((pool["prefetched"], pool["prefetch_hits"]),
                         (217, 7))
        self.assertEqual(pool["bytes_read"], 86476216)

    def test_discover_summary(self):
        s = parsers.parse_summary(DISCOVER_OUTPUT)
        self.assertEqual(parsers.one(s, "queries"), {"paid": 10129})
        self.assertEqual(parsers.one(s, "journal")["paid"], 10129)
        self.assertEqual(parsers.one(s, "journal")["epoch"], 41)
        net = parsers.one(s, "network")
        self.assertEqual(net["endpoint"], 0)
        self.assertEqual((net["queries"], net["retries"], net["reconnects"]),
                         (10129, 1, 2))
        self.assertEqual((net["bytes_out"], net["bytes_in"]),
                         (1174980, 2093403))
        self.assertNotIn("fed_queries", s)

    def test_federated_summary(self):
        s = parsers.parse_summary(FEDERATED_OUTPUT)
        self.assertEqual(parsers.one(s, "fed_queries"),
                         {"paid": 14254, "pruned": 847, "rounds": 224})
        self.assertNotIn("queries", s)
        self.assertNotIn("backend", s)  # the coordinator's per-site line
        self.assertEqual(parsers.total(s, "network", "queries"), 9504)
        self.assertEqual(s["network"][1]["endpoint"], "127.0.0.1:39052")

    def test_one_rejects_missing_and_repeated_lines(self):
        s = parsers.parse_summary(FEDERATED_OUTPUT)
        with self.assertRaises(ValueError):
            parsers.one(s, "network")
        with self.assertRaises(ValueError):
            parsers.one(s, "pool")
        self.assertEqual(parsers.total(s, "pool", "hits"), 0)


def span(sid, parent, name, start, end, backend=0, ordinal=0, key=0):
    return spans.Span(sid, parent, name, backend, ordinal, key, start, end)


class SpanTest(unittest.TestCase):
    def test_union_length(self):
        self.assertEqual(spans.union_length([]), 0)
        self.assertEqual(spans.union_length([(0, 10), (20, 25)]), 15)
        self.assertEqual(spans.union_length([(0, 10), (5, 15)]), 15)
        self.assertEqual(spans.union_length([(0, 10), (2, 3), (10, 12)]), 12)
        self.assertEqual(spans.union_length([(5, 5), (7, 6)]), 0)

    def test_self_time_subtracts_union_of_children(self):
        s = [span(0, -1, "session", 0, 100),
             span(1, 0, "net.execute", 10, 40),
             span(2, 0, "net.execute", 30, 60),  # overlaps its sibling
             span(3, 1, "interface.execute", 15, 25)]
        selfs = spans.self_times(s)
        self.assertEqual(selfs[0], 100 - 50)
        self.assertEqual(selfs[1], 30 - 10)
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[3], 10)

    def test_self_time_clips_children_to_parent(self):
        s = [span(0, -1, "net.execute", 10, 20),
             span(1, 0, "interface.execute", 15, 30)]
        self.assertEqual(spans.self_times(s)[0], 5)

    def test_coverage(self):
        nested = [span(0, -1, "session", 0, 100),
                  span(1, 0, "recovery.execute", 10, 50),
                  span(2, 1, "net.execute", 20, 45),
                  span(3, 2, "interface.execute", 25, 35)]
        self.assertAlmostEqual(
            spans.coverage(nested, spans.self_times(nested)), 1.0)
        parallel = [span(0, -1, "session", 0, 100),
                    span(1, 0, "net.execute", 10, 60, backend=0),
                    span(2, 0, "net.execute", 20, 80, backend=1)]
        self.assertAlmostEqual(
            spans.coverage(parallel, spans.self_times(parallel)), 1.0)
        leaking = [span(0, -1, "session", 0, 100),
                   span(1, 0, "net.execute", 10, 40),
                   span(2, 1, "interface.execute", 30, 60)]
        self.assertAlmostEqual(
            spans.coverage(leaking, spans.self_times(leaking)), 1.2)

    def test_link_pairs_each_backend_in_order(self):
        client = [span(0, -1, "session", 0, 100, backend=-1),
                  span(1, 0, "net.execute", 10, 20, 0, ordinal=1, key=7),
                  span(2, 0, "net.execute", 10, 30, 1, ordinal=1, key=7),
                  span(3, 0, "net.execute", 40, 50, 0, ordinal=2, key=8)]
        server = [span(4, -1, "interface.execute", 42, 45, 0, 2, key=8),
                  span(5, -1, "interface.execute", 12, 18, 1, 1, key=7),
                  span(6, -1, "interface.execute", 11, 19, 0, 1, key=7)]
        linked = spans.link(client, server)
        self.assertEqual(sorted((s.id, s.parent) for s in linked),
                         [(4, 3), (5, 2), (6, 1)])

    def test_link_skips_calls_the_server_cache_answered(self):
        # The second call repeats the first query; the server's shared
        # cache answers it, so the third call pairs with execution 2.
        client = [span(0, -1, "session", 0, 100, backend=-1),
                  span(1, 0, "net.execute", 10, 20, ordinal=1, key=5),
                  span(2, 0, "net.execute", 30, 40, ordinal=2, key=5),
                  span(3, 0, "net.execute", 50, 60, ordinal=3, key=9)]
        server = [span(4, -1, "interface.execute", 12, 18, 0, 1, key=5),
                  span(5, -1, "interface.execute", 52, 58, 0, 2, key=9)]
        linked = spans.link(client, server)
        self.assertEqual([(s.id, s.parent) for s in linked], [(4, 1), (5, 3)])
        with self.assertRaises(ValueError):
            spans.link(client, server + [
                span(6, -1, "interface.execute", 70, 71, 0, 3, key=9)])

    def test_read_spans_offsets_ids(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "s")
            with open(path, "w") as f:
                f.write("0 -1 interface.execute 0 1 77 100 200\n"
                        "1 0 interface.execute 0 2 78 300 400\n")
            got = spans.read_spans(path, id_offset=10, backend=2)
        self.assertEqual(got[0], span(10, -1, "interface.execute", 100, 200,
                                      backend=2, ordinal=1, key=77))
        self.assertEqual(got[1].parent, 10)

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(spans.percentile(values, 50), 50)
        self.assertEqual(spans.percentile(values, 99), 99)
        self.assertEqual(spans.percentile([7], 99), 7)


def brute_force_skyline(rows, m):
    vecs = {r[:m] for r in rows}
    return {v for v in vecs
            if not any(w != v and all(a <= b for a, b in zip(w, v))
                       for w in vecs)}


class GroundTruthTest(unittest.TestCase):
    def test_matches_brute_force(self):
        rng = random.Random(5)
        for trial in range(30):
            rows = [(rng.randint(0, 30), rng.randint(0, 30),
                     rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2),
                     rng.randint(0, 9)) for _ in range(rng.randint(1, 200))]
            self.assertEqual(datagen.skyline_values(rows),
                             brute_force_skyline(rows, 5), trial)

    def test_blue_nile_sample_matches_brute_force(self):
        rows = datagen.generate_blue_nile(1500, 3)
        self.assertEqual(datagen.skyline_values(rows),
                         brute_force_skyline(rows, 5))

    def test_generator_is_seeded(self):
        self.assertEqual(datagen.generate_blue_nile(50, 9),
                         datagen.generate_blue_nile(50, 9))
        self.assertNotEqual(datagen.generate_blue_nile(50, 9),
                            datagen.generate_blue_nile(50, 10))

    def test_comparer_rejects_one_altered_row(self):
        rows = datagen.generate_blue_nile(3000, 4)
        truth = datagen.skyline_values(rows)
        found = [v + (0,) for v in sorted(truth)]
        self.assertIsNone(datagen.compare_skyline(found, truth))
        for i in (0, len(found) // 2, len(found) - 1):
            altered = list(found)
            row = list(altered[i])
            row[0] += 1  # a worse price: a different, dominated vector
            altered[i] = tuple(row)
            self.assertIsNotNone(datagen.compare_skyline(altered, truth))
        self.assertIsNotNone(datagen.compare_skyline(found[1:], truth))

    def test_csv_round_trip(self):
        rows = datagen.generate_blue_nile(20, 1)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "t.csv")
            datagen.write_csv(rows, path)
            self.assertEqual(datagen.read_csv(path), rows)


if __name__ == "__main__":
    unittest.main()
