"""Seeded input generation for the three workloads.

Every generator takes the imported ``patternex`` package as ``px`` (so the
set-up timing can re-import it), a seed and a pass index, and returns the
units of that pass; the same seed and pass give the same inputs.  A run
does a fixed number of passes, so the amount of work depends only on the
number of passes, and it makes each pass's inputs just before the pass,
so only one pass is held in memory at a time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import permutations

# ---------------------------------------------------------------------------
# symmetries that preserve every extremal value


def matrix_symmetries(d: int) -> list[tuple[tuple[int, ...], int]]:
    """All (axis permutation, reversal mask) pairs for dimension d."""
    return [(perm, mask) for perm in permutations(range(d)) for mask in range(2**d)]


def apply_matrix_symmetry(extents, ones, symmetry):
    """Image of a matrix (extents, ones) under an axis permutation and reversals."""
    perm, mask = symmetry
    new_extents = tuple(extents[a] for a in perm)
    new_ones = set()
    for coord in ones:
        new_ones.add(
            tuple(
                new_extents[i] + 1 - coord[a] if mask >> i & 1 else coord[a]
                for i, a in enumerate(perm)
            )
        )
    return new_extents, frozenset(new_ones)


def reverse_edges(n, edges):
    """Image of a hypergraph under the vertex-order reversal v -> n + 1 - v."""
    return frozenset(tuple(sorted(n + 1 - v for v in e)) for e in edges)


def matrix_id(extents, ones) -> str:
    cells = "".join("(" + ",".join(map(str, c)) + ")" for c in sorted(ones))
    return "x".join(map(str, extents)) + ":" + (cells or "empty")


def hypergraph_id(n, edges) -> str:
    cells = "".join("{" + ",".join(map(str, e)) + "}" for e in sorted(edges))
    return f"n={n}:" + (cells or "empty")


def canonical_matrix_id(extents, ones) -> str:
    """Least id over all symmetry images, shared by every image."""
    return min(
        matrix_id(*apply_matrix_symmetry(extents, ones, s))
        for s in matrix_symmetries(len(extents))
    )


def canonical_hypergraph_id(n, edges) -> str:
    return min(hypergraph_id(n, edges), hypergraph_id(n, reverse_edges(n, edges)))


# ---------------------------------------------------------------------------
# extremal_tables


def _perm_ones(perm: str):
    return [(i, int(c)) for i, c in enumerate(perm, start=1)]


# (kind, name, extents or vertex count, ones or edges, n range)
MATRIX_PATTERNS = [
    ("ex", "I2", (2, 2), _perm_ones("12"), range(1, 7)),
    ("ex", "P123", (3, 3), _perm_ones("123"), range(1, 6)),
    ("ex", "P132", (3, 3), _perm_ones("132"), range(1, 6)),
    *[
        ("ex", "P" + p, (4, 4), _perm_ones(p), range(1, 6))
        for p in ("1234", "1243", "1324", "1342", "1432", "2143", "2413")
    ],
    ("ex", "J2", (2, 2), [(1, 1), (1, 2), (2, 1), (2, 2)], range(1, 6)),
    ("ex", "L3", (2, 2), [(1, 1), (2, 1), (2, 2)], range(1, 6)),
    ("ex", "Z23", (2, 3), [(1, 1), (1, 3), (2, 2)], range(1, 6)),
    ("ex", "Q23", (2, 3), [(1, 1), (2, 2), (2, 3)], range(1, 6)),
    ("f", "I3", (2, 2, 2), [(1, 1, 1), (2, 2, 2)], range(1, 4)),
]

HYPER_PATTERNS = [
    ("gex", "M12-34", 4, [(1, 2), (3, 4)], range(1, 7)),
    ("gex", "M13-24", 4, [(1, 3), (2, 4)], range(1, 8)),
    ("gex", "M14-23", 4, [(1, 4), (2, 3)], range(1, 8)),
    ("gex", "M12-35-46", 6, [(1, 2), (3, 5), (4, 6)], range(1, 8)),
    ("gex", "M14-26-35", 6, [(1, 4), (2, 6), (3, 5)], range(1, 8)),
    *[
        (kind, name, n, edges, range(1, 5))
        for name, n, edges in (
            ("H12-23", 3, [(1, 2), (2, 3)]),
            ("H13-23", 3, [(1, 3), (2, 3)]),
            ("H123-23", 3, [(1, 2, 3), (2, 3)]),
            ("H123-34", 4, [(1, 2, 3), (3, 4)]),
            ("H13-24", 4, [(1, 3), (2, 4)]),
            ("H12-23-34", 4, [(1, 2), (2, 3), (3, 4)]),
        )
        for kind in ("exe", "exi", "count")
    ],
]

CERTIFIED_KINDS = ("ex", "f", "gex", "exe", "exi")


@dataclass(frozen=True)
class TableRow:
    """One (pattern image, kind, n) instance of extremal_tables."""

    kind: str
    label: str  # the pattern's name in MATRIX_PATTERNS or HYPER_PATTERNS
    key: str  # canonical pattern id, the reference table's key
    pattern: object  # BinaryMatrix or OrderedHypergraph
    n: int


def extremal_tables(px, seed: int, pass_index: int) -> list[TableRow]:
    """Every pattern's table rows, under one value-preserving image per
    pattern.

    The seed shuffles each pattern's distinct images, and pass p takes
    image p of that order, cycling.  Images of one pattern can differ in
    cost threefold, so cycling (rather than drawing each pass afresh)
    keeps a run's total work nearly the same for every seed.
    """
    rng = random.Random(f"extremal_tables/{seed}")
    tables = []
    for kind, name, extents, ones, ns in MATRIX_PATTERNS:
        images = {
            matrix_id(*im): im
            for im in (apply_matrix_symmetry(extents, ones, s) for s in matrix_symmetries(len(extents)))
        }
        order = [px.BinaryMatrix(*images[k]) for k in sorted(images)]
        tables.append((kind, name, canonical_matrix_id(extents, ones), order, ns))
    for kind, name, vertices, edges, ns in HYPER_PATTERNS:
        images = {
            hypergraph_id(vertices, e): e for e in (frozenset(edges), reverse_edges(vertices, edges))
        }
        order = [px.OrderedHypergraph(vertices, images[k]) for k in sorted(images)]
        tables.append((kind, name, canonical_hypergraph_id(vertices, edges), order, ns))
    for table in tables:
        rng.shuffle(table[3])
    return [
        TableRow(kind, name, key, order[pass_index % len(order)], n)
        for kind, name, key, order, ns in tables
        for n in ns
    ]


# ---------------------------------------------------------------------------
# containment_queries


@dataclass(frozen=True)
class Query:
    """One containment question; ``planted`` hosts carry a copy of the pattern."""

    kind: str  # "matrix" or "hypergraph"
    label: str
    host: object
    pattern: object
    planted: bool


NON_PERMUTATION = {
    "J2": ((2, 2), [(1, 1), (1, 2), (2, 1), (2, 2)]),
    "Z23": ((2, 3), [(1, 1), (1, 3), (2, 2)]),
    "C33": ((3, 3), [(1, 2), (2, 1), (2, 3), (3, 2)]),
}

# (pattern: "perm<k>" or a NON_PERMUTATION name, host side, density factors).
# The density factor multiplies the first-moment threshold, where the
# expected number of pattern copies in the host is 1, so hosts fall on
# both sides of it.  Every (class, factor) pair gets QUERIES_PER_CELL
# hosts with a planted copy and as many without, in every pass.
MATRIX_CLASSES = [
    ("perm3", 12, (0.5, 1.0, 2.0)),
    ("perm4", 11, (0.5, 1.0, 2.0)),
    ("perm5", 10, (0.5, 1.0)),
    ("J2", 12, (0.5, 1.0, 2.0)),
    ("Z23", 12, (0.5, 1.0, 2.0)),
    ("C33", 11, (0.5, 1.0, 2.0)),
]

# (label, host vertices, edge size, pattern vertices, pattern edges, host edge counts)
HYPER_CLASSES = [
    ("graph", 16, 2, 7, 5, (18, 36)),
    ("graph", 18, 2, 7, 6, (24, 48)),
    ("triple", 14, 3, 7, 4, (24, 48)),
]

QUERIES_PER_CELL = 12


def _random_matrix_pattern(rng, label):
    if label.startswith("perm"):
        perm = list(range(1, int(label[4:]) + 1))
        rng.shuffle(perm)
        k = len(perm)
        return (k, k), [(i, v) for i, v in enumerate(perm, start=1)]
    return NON_PERMUTATION[label]


def _random_edges(rng, n, size, count, forced=()):
    edges = set(forced)
    vertices = range(1, n + 1)
    while len(edges) < count:
        edges.add(tuple(sorted(rng.sample(vertices, size))))
    return frozenset(edges)


def containment_queries(px, seed: int, pass_index: int) -> list[Query]:
    rng = random.Random(f"containment_queries/{seed}/{pass_index}")
    queries = []
    for label, side, factors in MATRIX_CLASSES:
        for factor in factors:
            for planted in (False, True):
                for _ in range(QUERIES_PER_CELL):
                    extents, ones = _random_matrix_pattern(rng, label)
                    threshold = (
                        math.comb(side, extents[0]) * math.comb(side, extents[1])
                    ) ** (-1 / len(ones))
                    density = min(0.9, factor * threshold)
                    host_ones = {
                        (i, j)
                        for i in range(1, side + 1)
                        for j in range(1, side + 1)
                        if rng.random() < density
                    }
                    if planted:
                        rows = sorted(rng.sample(range(1, side + 1), extents[0]))
                        cols = sorted(rng.sample(range(1, side + 1), extents[1]))
                        host_ones |= {(rows[i - 1], cols[j - 1]) for i, j in ones}
                    queries.append(
                        Query(
                            "matrix",
                            f"{label}@{factor}",
                            px.BinaryMatrix((side, side), frozenset(host_ones)),
                            px.BinaryMatrix(extents, frozenset(ones)),
                            planted,
                        )
                    )
    for label, hn, size, pn, pm, host_counts in HYPER_CLASSES:
        for count in host_counts:
            for planted in (False, True):
                for _ in range(QUERIES_PER_CELL):
                    pat_edges = _random_edges(rng, pn, size, pm)
                    forced = ()
                    if planted:
                        f = sorted(rng.sample(range(1, hn + 1), pn))
                        forced = {tuple(f[v - 1] for v in e) for e in pat_edges}
                    host_edges = _random_edges(rng, hn, size, count, forced)
                    queries.append(
                        Query(
                            "hypergraph",
                            f"{label}{hn}/{pm}@{count}",
                            px.OrderedHypergraph(hn, host_edges),
                            px.OrderedHypergraph(pn, pat_edges),
                            planted,
                        )
                    )
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# verify_battery


def verify_battery(px, seed: int, pass_index: int) -> list[int]:
    """One unit per pass: the seed handed to run_checks."""
    return [random.Random(f"verify_battery/{seed}/{pass_index}").getrandbits(31)]


GENERATORS = {
    "extremal_tables": extremal_tables,
    "containment_queries": containment_queries,
    "verify_battery": verify_battery,
}
