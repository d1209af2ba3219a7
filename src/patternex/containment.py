"""Containment, representation, and order-isomorphism, with explicit witnesses.

Every decision procedure here returns an embedding object rather than a
bare boolean, so downstream code can re-verify witnesses instead of
trusting search.  Tie-breaking is lexicographic everywhere: repeated runs
return identical embeddings.

Both engines keep candidate sets as bitmask ints, and both come in two
steps: a prepare step builds the form a search reads from a host or a
pattern, and one search step runs on a host form and a pattern form.
Each search makes its own size test on the two forms it is handed,
before it reads any row, and the public deciders keep only the pre-test
that answers before anything is built.  Each search skips, before any
bit operation, a host row with fewer 1-entries than the pattern row or
a host vertex in fewer edges than the pattern vertex (the degree test
of Ullmann 1976), as neither can fit.
The matrix engine, shared by ``matrix_contains`` (which the random
repair calls) and ``klazar_marcus_check``, prepares a matrix by
numbering each 1-entry's cell on axes 2..d, row-major from 0: in 2-d by
its column, and for d >= 3 by arithmetic over the extents of those axes.
Its search is handed a table of the placements of the pattern on axes
2..d, which the caller fetches once: per query, or per sweep of graphs
that share one associated shape.  The fetch checks ``MAX_TABLE_BITS``
before it builds anything, and a refused shape prepares no form.  The
search runs host rows first, keeping the placements that still fit as
one int: a positive answer stops at its first complete path, and a
negative one costs at most one big-int operation per step of a greedy
row scan for each of the prod C(n_i, k_i) placements.  The placement
table, in a cache of at most 64 shapes and ``MAX_TABLE_BITS`` in all that
is emptied at its limit, is the engine's only per-shape state.

The hypergraph engine, shared by ``hypergraph_contains`` and
``klazar_marcus_check``, backtracks over increasing vertex maps,
narrowing each pattern edge's candidate host edges (one int, all host
edges at first) with one AND per mapped vertex.  Its host form, one
table of n rows of ints, is checked against ``MAX_TABLE_BITS`` before
it is built.  It
backjumps: each failure blames the pattern vertices whose images it
depended on (an edge left with no candidate blames that edge's mapped
vertices, a failed edge assignment every vertex in some edge), and when
the subtree below a pattern vertex u fails without blaming u, u's later
images are not tried.  A later image of u leaves every blamed edge the
same candidates over a smaller range, so its subtree fails too.  No
failure blames a vertex in no edge, so its later images are never tried.
Only failing subtrees are cut, and answers and least embeddings are those
of the full search.  Single calls prepare both forms inline; the
all-pairs sweep prepares each graph once per part size.

The all-pairs sweep, ``association_disagreement``, splits its hosts into
stripes, host h in stripe h mod w, where w is the number of available
CPUs but at most one per ``MIN_PAIRS_PER_WORKER`` pairs.  It runs stripe
0 itself and each other stripe in a forked child, which reports only
through its exit status: 0 when its stripe holds no disagreement.  When
every child exits 0, stripe 0's answer is the first pair of the serial
sweep.  Any other status, and a search or a fork that raises, runs the
serial sweep over all pairs instead.  The sweep stays serial with one
worker, without ``os.fork`` and while another Python thread is alive.
Containment is
NP-hard in general; the contract is correctness at desk scale (pattern
weight up to ~8, host side up to ~12 for d=2), not polynomial time.
"""

from __future__ import annotations

import os
import threading
from itertools import combinations, product
from math import prod
from operator import gt, lt

from .errors import CapacityError, ConsistencyError, InputError, int_text
from .structures import (
    BinaryMatrix,
    Edge,
    OrderedHypergraph,
    PartsSpec,
    _Record,
    associated_matrix,
    binomial_product,
    is_d_partite,
)

# The most bits of table that one containment engine builds for one query
# or sweep, each entry counted as a 64-bit reference to an int of its
# width: the placement table of a pattern and host tail shape (an int of
# one bit per placement per entry, see _placement_table) and the
# hypergraph host form (an int of one bit per host edge per entry, see
# _hyper_host_form).  The placement table is fetched once per
# matrix_contains or klazar_marcus_check call and once per
# association_disagreement sweep, the host form built once per
# hypergraph_contains or klazar_marcus_check call and once per graph of a
# sweep.  The largest shape of the tests, verify up to budget 6 and the
# benchmark, a 2x1 pattern on a 1000x1000 host, counts about 10**6.
MAX_TABLE_BITS = 10**8

# The fewest ordered pairs an association_disagreement sweep gives each
# process: forking a child and reaping it costs about 1 ms, and 2**15
# pairs of the part-size-3 sweep about 50 ms (shared 2-core Xeon), so
# part sizes 1 and 2 (4 and 256 pairs) stay in one process.
MIN_PAIRS_PER_WORKER = 2**15

# ---------------------------------------------------------------------------
# witness types


class MatrixEmbedding(_Record):
    """Per-axis strictly increasing index lists selecting a submatrix."""

    __slots__ = ("axis_indices",)

    def _check(self) -> None:
        for axis, sel in enumerate(self.axis_indices, start=1):
            if not all(map(lt, sel, sel[1:])):
                raise InputError(f"axis {axis} indices {sel} are not strictly increasing")


class HypergraphEmbedding(_Record):
    """Increasing vertex injection f and injective edge map g with f(e) <= g(e).

    ``edge_map`` pairs each pattern edge with its host edge, sorted by
    pattern edge.
    """

    __slots__ = ("vertex_map", "edge_map")

    def as_dict(self) -> dict[Edge, Edge]:
        return dict(self.edge_map)


def submatrix(matrix: BinaryMatrix, embedding: MatrixEmbedding) -> BinaryMatrix:
    """The submatrix of ``matrix`` selected by the embedding's index lists."""
    if len(embedding.axis_indices) != matrix.d:
        raise InputError("embedding dimension does not match matrix")
    positions = []
    for axis, sel in enumerate(embedding.axis_indices):
        if sel and not 1 <= sel[0] <= sel[-1] <= matrix.extents[axis]:
            raise InputError(f"axis {axis + 1} indices {sel} out of range")
        positions.append({v: i + 1 for i, v in enumerate(sel)})
    ones = set()
    for coord in matrix.ones:
        mapped = tuple(positions[ax].get(c) for ax, c in enumerate(coord))
        if all(m is not None for m in mapped):
            ones.add(mapped)
    return BinaryMatrix(tuple(len(s) for s in embedding.axis_indices), frozenset(ones))


def verify_matrix_embedding(
    host: BinaryMatrix, pattern: BinaryMatrix, embedding: MatrixEmbedding
) -> bool:
    """Re-check a witness: the selected submatrix must represent the pattern."""
    try:
        sub = submatrix(host, embedding)
    except InputError:
        return False
    if sub.extents != pattern.extents:
        return False
    return pattern.ones <= sub.ones


def verify_hypergraph_embedding(
    host: OrderedHypergraph, pattern: OrderedHypergraph, embedding: HypergraphEmbedding
) -> bool:
    """Re-check a witness against the containment definition."""
    f = embedding.vertex_map
    if len(f) != pattern.n:
        return False
    if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
        return False
    if f and not (1 <= f[0] and f[-1] <= host.n):
        return False
    # one entry per pattern edge: as_dict keeps only the last image of a repeated edge
    mapping = embedding.as_dict()
    if len(embedding.edge_map) != len(pattern.edges) or set(mapping) != pattern.edges:
        return False
    images = list(mapping.values())
    if len(set(images)) != len(images):
        return False
    for edge, image in mapping.items():
        if image not in host.edges:
            return False
        if not {f[v - 1] for v in edge} <= set(image):
            return False
    return True


# ---------------------------------------------------------------------------
# matrix containment


def represents(host: BinaryMatrix, pattern: BinaryMatrix) -> bool:
    """True when the pattern arises from the host by clearing 1-entries."""
    if host.extents != pattern.extents:
        raise InputError(
            f"extent mismatch: {host.extents} vs {pattern.extents}"
        )
    return pattern.ones <= host.ones


# (table, sels), the placements of one pattern tail shape in one host tail
# shape (see _placement_table)
_Placements = tuple[list[list[int]], list[tuple[tuple[int, ...], ...]]]


def placement_table_bits(pat_tail: tuple[int, ...], host_tail: tuple[int, ...]) -> int:
    """The bits the placement table of a pattern tail shape in a host tail
    shape, each extent at most the host's, takes (see
    :func:`_placement_table`): each of its prod(pat_tail) x prod(host_tail)
    entries counted as a 64-bit reference to an int of one bit per
    placement, prod C(n_i, k_i) placements.

    Raises :class:`CapacityError` when that is more than
    ``MAX_TABLE_BITS``.  The placements are counted by
    :func:`~patternex.structures.binomial_product`, which builds nothing
    and stops once past the limit, so a refusal costs microseconds
    whatever the extents, and its message gives the bits counted so far.
    """
    cells = prod(pat_tail) * prod(host_tail)
    placements = binomial_product(tuple(zip(host_tail, pat_tail)), MAX_TABLE_BITS // cells - 64)
    bits = cells * (placements + 64)
    if bits > MAX_TABLE_BITS:
        # each tail as its tuple prints, through int_text
        pat, host = (
            f"({', '.join(map(int_text, tail))}{',' * (len(tail) == 1)})"
            for tail in (pat_tail, host_tail)
        )
        raise CapacityError(
            f"the placement table of tail shape {pat} in {host} takes at least "
            f"{int_text(bits)} bits, over the limit {MAX_TABLE_BITS}"
        )
    return bits


# pat_tail + host_tail -> (bits, placements); the two tails have the same
# length, and a flat key hashes faster than a pair.  It assumes one thread
# at a time, as the package runs.
_placement_cache: dict[tuple[int, ...], tuple[int, _Placements]] = {}


def _placement_table(pat_tail: tuple[int, ...], host_tail: tuple[int, ...]) -> _Placements:
    """The placements of axes 2..d, numbered in lexicographic order.

    Returns ``(table, sels)``.  Tail cells are numbered row-major over the
    tail extents, 0-based.  Bit p of ``table[t][c]`` is set when placement
    p sends pattern tail cell t onto host tail cell c, and ``sels[p]`` is
    placement p as 1-based index lists.

    Raises :class:`CapacityError` when the table would take more than
    ``MAX_TABLE_BITS`` (:func:`placement_table_bits`), before it builds
    anything; a refusal is not cached, a table is.  The cache holds at
    most 64 tables and, counted the same way, at most ``MAX_TABLE_BITS``
    in all: it is emptied at its limit, when a new table would pass either.
    """
    key = pat_tail + host_tail
    cached = _placement_cache.get(key)
    if cached is None:
        bits = placement_table_bits(pat_tail, host_tail)
        total = bits + sum(b for b, _ in _placement_cache.values())
        if len(_placement_cache) >= 64 or total > MAX_TABLE_BITS:
            _placement_cache.clear()
        cached = _placement_cache[key] = bits, _build_placements(pat_tail, host_tail)
    return cached[1]


def _build_placements(pat_tail: tuple[int, ...], host_tail: tuple[int, ...]) -> _Placements:
    """The ``(table, sels)`` of :func:`_placement_table`, built anew."""
    choices = [list(combinations(range(n), k)) for k, n in zip(pat_tail, host_tail)]
    pat_cells = list(product(*(range(k) for k in pat_tail)))
    table = [[0] * prod(host_tail) for _ in pat_cells]
    sels = []
    for p, placement in enumerate(product(*choices)):
        sels.append(tuple(tuple(i + 1 for i in sel) for sel in placement))
        bit = 1 << p
        for row, cell in zip(table, pat_cells):
            c = 0
            for sel, x, n in zip(placement, cell, host_tail):
                c = c * n + sel[x]
            row[c] |= bit
    return table, sels


# A prepared form is a plain tuple of the lists its prepare step built: a
# public call prepares two forms, and named tuples with tuple copies of
# the lists added a few microseconds to each call, a visible share of the
# small certificate checks.  The search steps never modify a form, so the
# all-pairs sweep can share them.  (extents, weight, rows): rows[i] lists the
# tail cells (axes 2..d, numbered row-major over extents[1:] from 0) of
# the 1-entries in row i + 1.
_MatrixForm = tuple[tuple[int, ...], int, list[list[int]]]


def _matrix_form(extents: tuple[int, ...], ones) -> _MatrixForm:
    """Prepare a host or a pattern for :func:`_matrix_embedding_search`.

    Each 1-entry's cell on axes 2..d is numbered and appended to its row
    in the order of ``ones``, row-major over ``extents[1:]`` from 0 as
    :func:`_placement_table` numbers its columns.  In 2-d the tail is one
    axis, and cell (r, c) is numbered c - 1.
    """
    rows = [[] for _ in range(extents[0])]
    if len(extents) == 2:
        for r, c in ones:
            rows[r - 1].append(c - 1)
    else:
        tail = extents[1:]
        for cell in ones:
            c = 0
            for x, n in zip(cell[1:], tail):
                c = c * n + x - 1
            rows[cell[0] - 1].append(c)
    return extents, len(ones), rows


def _matrix_embedding_search(
    host: _MatrixForm, pattern: _MatrixForm, placements: _Placements
) -> tuple[tuple[int, ...], ...] | None:
    """The least embedding, axis 1 first: the least rows, then the least
    placement of axes 2..d among those that fit these rows.

    Rows first: pattern row j tries host rows in increasing order and
    keeps the placements alive that send row j's 1-entries into 1-entries
    of the host row, one AND per pattern 1-entry of an OR over the host
    row.  The first complete path has the least rows, and its lowest
    alive bit the least placement.  A failed subtree removes its
    placements from its parent's set, as they cannot fit a later row
    either, so each placement follows one greedy path: the cost is at
    most one big-int operation per step of a greedy row scan for each
    placement, and a positive answer stops at its first complete path.

    A host row with fewer 1-entries than pattern row j is skipped before
    any AND: a placement is injective on tail cells, so it sends row j's
    cells onto that many distinct cells, each of which must hold a
    1-entry of the host row.

    ``placements`` is the :func:`_placement_table` of the pattern's tail
    shape in the host's, which the caller fetches: once per call, or once
    per sweep of graphs that share one associated shape.  So the shapes
    are the caller's to test: a placement table exists only for a pattern
    of the host's dimension with no extent above the host's
    (:func:`matrix_contains` tests both before the fetch, and validation
    makes the association paths' shapes equal).  The search tests the
    weights itself.  A pattern of weight 0 tests no cell, so rows 1..k1
    and the first placement fit.
    """
    host_extents, host_weight, host_rows = host
    pat_extents, pat_weight, pat_cells = pattern
    # no answer depends on this test, as a heavier pattern also fails in
    # the row scan; it spares the association sweep that scan on the pairs
    # whose weights refuse them, about a tenth of the sweep's time
    # (test_a_heavier_pattern_reads_no_host_row pins it)
    if pat_weight > host_weight:
        return None
    k1 = pat_extents[0]
    n1 = host_extents[0]
    table, sels = placements
    rows = [0] * k1
    alive = [0] * (k1 + 1)
    alive[0] = (1 << len(sels)) - 1
    j = 0
    r = 0
    while True:
        live = alive[j]
        last = n1 - k1 + j
        cells = pat_cells[j]
        need = len(cells)
        fits = 0
        while live and r <= last:
            row = host_rows[r]
            if len(row) >= need:
                fits = live
                for t in cells:
                    to_host = table[t]
                    cover = 0
                    for c in row:
                        cover |= to_host[c]
                    fits &= cover
                    if not fits:
                        break
                if fits:
                    break
            r += 1
        if fits:
            r += 1
            rows[j] = r
            if j + 1 == k1:
                return (tuple(rows),) + sels[(fits & -fits).bit_length() - 1]
            j += 1
            alive[j] = fits
        elif j == 0:
            return None
        else:
            j -= 1
            alive[j] &= ~alive[j + 1]
            r = rows[j]


def matrix_contains(host: BinaryMatrix, pattern: BinaryMatrix) -> MatrixEmbedding | None:
    """Find a submatrix of the host representing the pattern, or None.

    Returns the lexicographically least embedding (axis 1 indices first).
    A pattern with more 1-entries than the host, another dimension or an
    extent above the host's yields None before anything is built.  Only
    then does a shape past ``MAX_TABLE_BITS`` raise
    :class:`CapacityError`, before either form is prepared.
    """
    if (
        pattern.weight > host.weight
        or len(pattern.extents) != len(host.extents)
        or any(map(gt, pattern.extents, host.extents))
    ):
        return None
    placements = _placement_table(pattern.extents[1:], host.extents[1:])
    found = _matrix_embedding_search(
        _matrix_form(host.extents, host.ones),
        _matrix_form(pattern.extents, pattern.ones),
        placements,
    )
    return None if found is None else MatrixEmbedding(found)


# ---------------------------------------------------------------------------
# hypergraph containment


# (n, edge count, width, fit), edges numbered in lexicographic order:
# width is the largest edge size, and bit i of fit[w - 1][r] is set when
# edge i holds vertex w and at least r vertices above it (r < width).
_HyperHost = tuple[int, int, int, list[list[int]]]
# (n, edge count, largest, touches, in_edges), edges numbered in
# lexicographic order and vertex u as bit u - 1 of a vertex mask: largest
# is the largest edge size, touches[u - 1] lists (i, r, below) for each
# edge i holding u, where r counts the vertices of edge i above u and
# below is the mask of those under u, and in_edges is the mask of the
# vertices in some edge.
_HyperPattern = tuple[int, int, int, list[list[tuple[int, int, int]]], int]


def _hyper_host_form(n: int, edges: list[Edge]) -> _HyperHost:
    """Prepare a host with lexicographically sorted edges for
    :func:`_hyper_embedding_search`.

    Raises :class:`CapacityError` when ``fit``, n rows of width ints of
    one bit per edge, would take more than ``MAX_TABLE_BITS``, each int
    counted with a 64-bit reference.  The count is arithmetic and comes
    first, so a refusal builds nothing.
    """
    width = max(map(len, edges), default=0)
    bits = n * width * (len(edges) + 64)
    if bits > MAX_TABLE_BITS:
        raise CapacityError(
            f"the host form of n={n}, m={len(edges)} and edges of up to {width} vertices "
            f"takes {bits} bits, over the limit {MAX_TABLE_BITS}"
        )
    fit = [[0] * width for _ in range(n)]
    for idx, edge in enumerate(edges):
        bit = 1 << idx
        above = len(edge)
        for w in edge:
            above -= 1
            fit[w - 1][above] |= bit
    down = range(width - 1, 0, -1)
    for row in fit:
        for r in down:
            row[r - 1] |= row[r]
    return n, len(edges), width, fit


def _hyper_pattern_form(n: int, edges: list[Edge]) -> _HyperPattern:
    """Prepare a pattern with lexicographically sorted edges for
    :func:`_hyper_embedding_search`."""
    touches = [[] for _ in range(n)]
    in_edges = 0
    for i, edge in enumerate(edges):
        above = len(edge)
        below = 0
        for v in edge:
            above -= 1
            touches[v - 1].append((i, above, below))
            below |= 1 << (v - 1)
        in_edges |= below
    return n, len(edges), max(map(len, edges), default=0), touches, in_edges


def _hyper_embedding_search(
    host: _HyperHost, pattern: _HyperPattern
) -> tuple[tuple[int, ...], list[int]] | None:
    """The least embedding: the first increasing vertex map f, in
    lexicographic order, with an injective edge assignment, and its least
    assignment as host edge indices.

    Each pattern edge keeps its compatible host edges as one int.  Mapping
    pattern vertex u to host vertex w narrows every edge e holding u to
    ``fit[w - 1][r]``, the host edges that hold w and at least r vertices
    above it, where r counts the vertices of e above u; a map is dropped
    as soon as an edge has no candidate left.  The edge assignment
    backtracks over the candidates' set bits in index order.

    The one size test comes first: a pattern with more vertices or edges
    than the host, or an edge larger than every host edge, has no
    embedding (and the last would index past ``fit``'s rows).  Every
    pattern edge then starts from all host edges, with no filter by size.
    None is needed: edge e is first narrowed at its first vertex, to
    ``fit[w - 1][|e| - 1]``, which holds only host edges of at least |e|
    vertices, and no candidate set is read before that.  The touch loop
    reads only the edges that hold the vertex it maps, and the edge
    assignment runs after every vertex is mapped.

    Before any AND, host vertex w is skipped for u when it is in fewer
    host edges (``fit[w - 1][0]``) than u is in pattern edges: the edge
    assignment is injective, so the edges holding u need that many
    distinct host edges, each holding w.  A vertex in no edge needs none
    (and an edgeless host has empty ``fit`` rows).

    Backtracking backjumps (conflict-directed, Prosser 1993).  Each
    failure blames the pattern vertices whose images it depended on: an
    edge left with no candidate at u blames that edge's vertices under u,
    and a failed edge assignment blames every vertex in some edge.  Level
    u collects the blame of its failed images in ``blame[u]``.  When the
    subtree below u -> w fails and does not blame u, u -> w' fails for
    every w' > w, for the same reasons: a later image of u leaves every
    blamed edge the same candidates and only narrows the range of the
    vertices after u.  So the search merges ``blame[u]`` and goes back to
    u - 1.  Otherwise it drops u from the blame, adds the rest to
    ``blame[u]`` and tries u's next image.  Only failing subtrees are cut,
    so the answer and the least embedding are those of the full search.
    The rule covers the static skips it replaced: a vertex in no edge is
    never blamed, and a vertex whose edges all end at it is blamed only by
    failed edge assignments.  A count failure blames no vertex: it depends
    on u and w alone, so no other image of an earlier vertex lifts it.
    """
    host_n, host_m, width, fit = host
    pat_n, pat_m, largest, touches, in_edges = pattern
    if pat_n > host_n or pat_m > host_m or largest > width:
        return None
    f = [0] * pat_n
    levels = [[(1 << host_m) - 1] * pat_m] + [None] * pat_n
    blame = [0] * pat_n
    conflict = 0  # the blame of the current level's failed images
    u = 0
    w = 0
    while True:
        if u == pat_n:
            assignment = _assign_edges(levels[u])
            if assignment is not None:
                return tuple(f), assignment
            conflict = in_edges
        else:
            current = levels[u]
            touch = touches[u]
            need = len(touch)
            last = host_n - pat_n + u
            while w <= last:
                row = fit[w]
                if not need or row[0].bit_count() >= need:
                    for i, r, below in touch:
                        if not current[i] & row[r]:
                            conflict |= below
                            break
                    else:
                        break
                w += 1
            if w <= last:
                narrowed = current[:]
                for i, r, _ in touch:
                    narrowed[i] &= row[r]
                w += 1
                f[u] = w
                blame[u] = conflict
                conflict = 0
                u += 1
                levels[u] = narrowed
                continue
        # the subtree below u - 1 -> f[u - 1] failed, blaming conflict
        while u:
            u -= 1
            conflict |= blame[u]
            bit = 1 << u
            if conflict & bit:
                conflict ^= bit
                w = f[u]
                break
        else:
            return None


def _assign_edges(cands: list[int]) -> list[int] | None:
    """The least injective choice of one set bit from each int, as bit
    indices, by backtracking over the bits in increasing order; None when
    there is none."""
    m = len(cands)
    if m == 0:
        return []
    chosen = [0] * m
    avail = [0] * m
    avail[0] = cands[0]
    used = 0
    i = 0
    while True:
        free = avail[i]
        if free:
            low = free & -free
            avail[i] = free ^ low
            chosen[i] = low
            if i + 1 == m:
                return [bit.bit_length() - 1 for bit in chosen]
            used |= low
            i += 1
            avail[i] = cands[i] & ~used
        elif i == 0:
            return None
        else:
            i -= 1
            used ^= chosen[i]


def hypergraph_contains(
    host: OrderedHypergraph, pattern: OrderedHypergraph
) -> HypergraphEmbedding | None:
    """Find an embedding (f, g) of the pattern in the host, or None.

    f is found by exhaustive backtracking in increasing-vertex order; g by
    backtracking over compatible host edges in lexicographic order (plain
    greedy assignment is incomplete when pattern edges nest, so the edge
    map search backtracks while keeping the lexicographically-least
    tie-break).  Backtracking backjumps: when the subtree below a pattern
    vertex fails and no failure in it depended on that vertex's image, its
    later images are not tried, as they only shrink the range of the
    vertices after it (see :func:`_hyper_embedding_search`).

    The steps run in this order:

    1. A pattern with more vertices or edges than the host yields None,
       before either form is prepared.
    2. A host form past ``MAX_TABLE_BITS`` raises :class:`CapacityError`,
       before it is built.
    3. The search runs.

    So a pattern that the counts alone refuse answers None on any host.
    """
    # _hyper_embedding_search repeats this check, but only after both forms are prepared
    if pattern.n > host.n or len(pattern.edges) > len(host.edges):
        return None
    pat_edges = pattern.sorted_edges()
    host_edges = host.sorted_edges()
    found = _hyper_embedding_search(
        _hyper_host_form(host.n, host_edges), _hyper_pattern_form(pattern.n, pat_edges)
    )
    if found is None:
        return None
    f, assignment = found
    pairs = tuple(
        (edge, host_edges[idx]) for edge, idx in zip(pat_edges, assignment)
    )
    return HypergraphEmbedding(f, pairs)


# ---------------------------------------------------------------------------
# association equivalence


def _partite_forms(
    h: OrderedHypergraph, d: int
) -> tuple[_MatrixForm, _HyperHost, _HyperPattern]:
    """Validate h as d-partite d-uniform with d equal parts (uniformity is
    checked by ``associated_matrix``) and prepare its associated matrix's
    form and its hypergraph host and pattern forms."""
    if h.n % d != 0 or h.n == 0:
        raise InputError(f"vertex count {h.n} is not d*size for d={d}")
    parts = PartsSpec.equal(d, h.n // d)
    if not is_d_partite(h, parts):
        raise InputError("input is not d-partite with equal parts")
    matrix = associated_matrix(h, parts)
    edges = h.sorted_edges()
    return (
        _matrix_form(matrix.extents, matrix.ones),
        _hyper_host_form(h.n, edges),
        _hyper_pattern_form(h.n, edges),
    )


def _disagreement(hyper_side: bool, host: OrderedHypergraph, pattern: OrderedHypergraph) -> str:
    return (
        "hypergraph containment and associated-matrix containment disagree: "
        f"hypergraph={hyper_side} matrix={not hyper_side} host={host!r} pattern={pattern!r}"
    )


def association_disagreement(
    graphs: list[OrderedHypergraph], d: int
) -> tuple[OrderedHypergraph, OrderedHypergraph, str] | None:
    """The first ordered pair (host, pattern, message), host-major, on
    which the two routes of :func:`klazar_marcus_check` disagree, or None.

    Each graph, d-partite d-uniform with d equal parts, is validated,
    associated and prepared once, in this process; each pair then runs
    only the two search steps, read as module globals when a stripe
    starts.  Every graph has the same associated shape, so one placement
    table serves every pair and the matrix search tests the weights
    itself; a host form or a shape past ``MAX_TABLE_BITS`` raises
    :class:`CapacityError` first.

    The hosts are split into ``workers`` stripes by index, host h in
    stripe h mod ``workers``, with ``workers`` the available CPUs but at
    most one per ``MIN_PAIRS_PER_WORKER`` pairs.  This process runs
    stripe 0 and a forked child each other stripe (see
    :func:`_forked_stripes`).  When every child reports a stripe with no
    disagreement, stripe 0's answer is the least (host, pattern) index
    pair, the first pair of the serial sweep.  Anything else, a child
    that finds a disagreement or fails, or a search or a fork that
    raises, runs the serial sweep once the children are gone: it raises
    the search's exception, or returns its first pair.  The sweep stays
    in one process when ``workers`` is 1, where ``os.fork`` is missing
    and while another Python thread is alive, as forking a threaded
    process is unsafe."""
    if d < 2 or len({g.n for g in graphs}) > 1:
        raise InputError(f"the equivalence needs d >= 2 parts of one size, got d={int_text(d)}")
    forms = [_partite_forms(g, d) for g in graphs]
    if not forms:
        return None
    tail = forms[0][0][0][1:]
    placements = _placement_table(tail, tail)
    workers = min(_available_cpus(), len(forms) ** 2 // MIN_PAIRS_PER_WORKER)
    serial = True
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        try:
            first, serial = _forked_stripes(forms, placements, workers), False
        except Exception:
            pass  # a child reported or failed, or a search or a fork raised
    if serial:
        first = _stripe(forms, placements, 0, 1)
    if first is None:
        return None
    host, pattern = graphs[first[0]], graphs[first[1]]
    return host, pattern, _disagreement(first[2], host, pattern)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stripe(
    forms: list, placements: _Placements, start: int, step: int
) -> tuple[int, int, bool] | None:
    """The first (host index, pattern index, hypergraph answer), host-major,
    among hosts start, start + step, ... and every pattern, on which the
    two routes disagree, or None."""
    hyper_search = _hyper_embedding_search
    matrix_search = _matrix_embedding_search
    for h in range(start, len(forms), step):
        host_matrix, host_hyper, _ = forms[h]
        for p, (pattern_matrix, _, pattern_hyper) in enumerate(forms):
            hyper_side = hyper_search(host_hyper, pattern_hyper) is not None
            matrix_side = matrix_search(host_matrix, pattern_matrix, placements) is not None
            if hyper_side != matrix_side:
                return h, p, hyper_side
    return None


def _forked_stripes(
    forms: list, placements: _Placements, workers: int
) -> tuple[int, int, bool] | None:
    """Stripe 0's :func:`_stripe` result, run in this process, once the
    children that run stripes 1 to ``workers - 1`` have all exited with 0.

    Fork rather than a spawned pool: a spawned worker takes about 35 ms
    to start and 50 ms to import this package, against about 0.2 s that
    the part-size-3 sweep saves, and it would not see this module's
    globals as the caller left them (tests plant defects there).  A
    child reports only through its exit status, with ``os._exit``: 0 when
    its stripe holds no disagreement, 1 when it holds one or the search
    raised.  A child that exits non-zero or is killed raises
    :class:`ChildProcessError` here.  On any exception,
    ``KeyboardInterrupt`` included, every child still running is killed,
    and every child is reaped."""
    pids = []
    try:
        for start in range(1, workers):
            pid = os.fork()
            if pid == 0:
                try:
                    os._exit(0 if _stripe(forms, placements, start, workers) is None else 1)
                finally:
                    os._exit(1)  # the search raised
            pids.append(pid)
        first = _stripe(forms, placements, 0, workers)
        while pids:
            status = os.waitpid(pids[-1], 0)[1]
            pids.pop()
            if status != 0:
                raise ChildProcessError(f"a stripe's child ended with wait status {status}")
        return first
    finally:
        for pid in pids:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def klazar_marcus_check(
    host: OrderedHypergraph, pattern: OrderedHypergraph, d: int | None = None
) -> bool:
    """Containment agrees with containment of the associated matrices.

    Both inputs must be d-partite d-uniform with d equal parts of the
    same size; the equivalence is specific to that case.  (With a
    smaller pattern the vertex injection may cross part boundaries and
    only the matrix-to-hypergraph direction survives: host ([6],{{1,4}})
    with parts of 3 order-contains pattern ([4],{{1,4}}) with parts of 2
    via f=(1,2,3,4), yet the associated matrices do not contain.)

    Validates, associates and prepares both inputs and fetches their
    placement table on every call, like the public deciders (a host form
    or a shape past ``MAX_TABLE_BITS`` raises :class:`CapacityError`);
    :func:`association_disagreement` sweeps all pairs of a list of graphs
    and prepares each graph once.

    Evaluates both routes and raises ConsistencyError if they disagree;
    otherwise returns the shared boolean.
    """
    if host.n != pattern.n:
        raise InputError(
            "the equivalence needs equal vertex counts and part sizes, got "
            f"{host.n} and {pattern.n} vertices"
        )
    sizes = {len(e) for e in host.edges | pattern.edges}
    if len(sizes) > 1:
        raise InputError(f"inputs are not uniform: edge sizes {sorted(sizes)}")
    inferred = sizes.pop() if sizes else None
    if d is None:
        d = inferred
    if d is None:
        # both edgeless on the same vertices: trivially order-isomorphic
        return True
    if d < 2:
        raise InputError(f"the equivalence needs d >= 2 parts, got d={int_text(d)}")
    if inferred is not None and inferred != d:
        raise InputError(f"edge size {inferred} does not match d={int_text(d)}")
    host_matrix, host_hyper, _ = _partite_forms(host, d)
    pattern_matrix, _, pattern_hyper = _partite_forms(pattern, d)
    tail = host_matrix[0][1:]
    placements = _placement_table(tail, tail)
    hyper_side = _hyper_embedding_search(host_hyper, pattern_hyper) is not None
    matrix_side = _matrix_embedding_search(host_matrix, pattern_matrix, placements) is not None
    if hyper_side != matrix_side:
        raise ConsistencyError(_disagreement(hyper_side, host, pattern))
    return hyper_side
