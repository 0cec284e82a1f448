"""Seeded Blue Nile inputs and an independent skyline ground truth.

The generator follows the hedonic model of the repository's Blue Nile
stand-in (src/dataset/blue_nile.cc): carat is log-normal, the three grades
are uniform, and price is roughly cubic in carat with multiplicative grade
discounts and log-normal noise, so price anti-correlates with the other
preferences. It is written here, from the seed alone, so the programs under
test receive only a CSV and never the seed.

The ground truth is computed without the library: per group of equal
trailing attributes, a 2-D staircase over (price, carat), then a check of
every staircase point against the staircases of the groups that are no
worse on every trailing attribute.
"""

import bisect
import math
import random

HEADER = ("Price:R:RQ:200:2999999,Carat:R:RQ:0:2177,Cut:R:RQ:0:3,"
          "Color:R:RQ:0:7,Clarity:R:RQ:0:7,Shape:F:EQ:0:9")
NUM_RANKING = 5  # Price, Carat, Cut, Color, Clarity; Shape only filters.


def generate_blue_nile(n, seed):
    """Returns n rows (price, carat, cut, color, clarity, shape)."""
    rng = random.Random(seed)
    mu = math.log(0.7)
    rows = []
    for _ in range(n):
        carat_c = min(max(round(math.exp(rng.gauss(mu, 0.55)) * 100.0), 23),
                      2200)
        carat = carat_c / 100.0
        cut = rng.randint(0, 3)
        color = rng.randint(0, 7)
        clarity = rng.randint(0, 7)
        grade = (0.93 ** cut) * (0.90 ** color) * (0.88 ** clarity)
        base = 5200.0 * carat ** 2.8 * grade
        price = min(max(round(base * math.exp(rng.gauss(0.0, 0.45))), 200),
                    2999999)
        # Smaller is better on every ranking attribute: invert carat.
        rows.append((price, 2200 - carat_c, cut, color, clarity,
                     rng.randint(0, 9)))
    return rows


def write_csv(rows, path):
    with open(path, "w") as f:
        f.write(HEADER + "\n")
        f.write("\n".join(",".join(map(str, r)) for r in rows))
        f.write("\n")


def read_csv(path):
    """Rows of a CSV written by write_csv or by hdsky_discover --out."""
    with open(path) as f:
        lines = f.read().split("\n")
    if not lines or lines[0] != HEADER:
        raise ValueError("%s: unexpected header %r" % (path, lines[:1]))
    return [tuple(int(v) for v in line.split(",")) for line in lines[1:]
            if line]


def skyline_values(rows, m=NUM_RANKING):
    """The skyline's distinct ranking-value vectors over the first m
    attributes (smaller is better), as a set of tuples.

    This is what a top-k interface can reveal when values repeat (equal
    tuples hide behind each other), so discovered skylines are compared
    at this granularity.
    """
    groups = {}
    for v in {r[:m] for r in rows}:
        groups.setdefault(v[2:], []).append(v[:2])
    # Per group: the 2-D skyline over (a0, a1) of distinct pairs, as a
    # staircase with a0 ascending and a1 strictly descending.
    stairs = {}
    for key, pts in groups.items():
        pts.sort()
        best = None
        stair = []
        for a0, a1 in pts:
            if best is None or a1 < best:
                stair.append((a0, a1))
                best = a1
        stairs[key] = stair
    keys = list(stairs)
    prices = {key: [p[0] for p in stairs[key]] for key in keys}
    result = set()
    for g in keys:
        better = [h for h in keys
                  if h != g and all(x <= y for x, y in zip(h, g))]
        for a0, a1 in stairs[g]:
            dominated = False
            for h in better:
                i = bisect.bisect_right(prices[h], a0) - 1
                if i >= 0 and stairs[h][i][1] <= a1:
                    dominated = True
                    break
            if not dominated:
                result.add((a0, a1) + g)
    return result


def compare_skyline(found_rows, truth, m=NUM_RANKING):
    """Checks a discovered skyline against the ground truth.

    Returns None when they match, else a one-line reason.
    """
    found = {r[:m] for r in found_rows}
    missing = truth - found
    extra = found - truth
    if missing or extra:
        return "%d missing, %d not in the skyline (e.g. %s)" % (
            len(missing), len(extra),
            sorted(missing or extra)[0])
    return None
