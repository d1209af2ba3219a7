"""Containment, representation, and order-isomorphism, with explicit witnesses.

Every decision procedure here returns an embedding object rather than a
bare boolean, so downstream code can re-verify witnesses instead of
trusting search.  Tie-breaking is lexicographic everywhere: repeated runs
return identical embeddings.

Matrix containment is one slice-bitmask engine, shared by
``matrix_contains`` and the random repair; a call costs a greedy row scan for each of
the prod C(n_i, k_i) placements of axes 2..d.  Hypergraph containment is
exhaustive backtracking.  Containment is NP-hard in general; the contract
is correctness at desk scale (pattern weight up to ~8, host side up to
~12 for d=2), not polynomial time.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import ConsistencyError, InputError
from .structures import (
    BinaryMatrix,
    Edge,
    OrderedHypergraph,
    PartsSpec,
    associated_matrix,
    is_d_partite,
)

# ---------------------------------------------------------------------------
# witness types


@dataclass(frozen=True)
class MatrixEmbedding:
    """Per-axis strictly increasing index lists selecting a submatrix."""

    axis_indices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for axis, sel in enumerate(self.axis_indices, start=1):
            if any(sel[i] >= sel[i + 1] for i in range(len(sel) - 1)):
                raise InputError(f"axis {axis} indices {sel} are not strictly increasing")


@dataclass(frozen=True)
class HypergraphEmbedding:
    """Increasing vertex injection f and injective edge map g with f(e) <= g(e).

    ``edge_map`` pairs each pattern edge with its host edge, sorted by
    pattern edge.
    """

    vertex_map: tuple[int, ...]
    edge_map: tuple[tuple[Edge, Edge], ...]

    def mapped_vertex(self, v: int) -> int:
        return self.vertex_map[v - 1]

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
    mapping = embedding.as_dict()
    if set(mapping) != pattern.edges:
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


def _placements(pat_ones: list, pat_extents: tuple, tail_extents: tuple) -> list:
    """Each choice ``sels`` of 0-based index lists on axes 2..d, in lexicographic
    order, with the bit of each pattern 1-entry in a row-major host slice."""
    placements = [((), [0] * len(pat_ones))]
    for axis, n in enumerate(tail_extents, start=1):
        placements = [
            (sels + (sel,), [b * n + sel[one[axis] - 1] for b, one in zip(bits, pat_ones)])
            for sels, bits in placements
            for sel in combinations(range(n), pat_extents[axis])
        ]
    return placements


def _fit_rows(slices: list[int], masks: list[int], hi: int) -> list[int] | None:
    """The least increasing 1-based rows below ``hi`` whose slices cover the
    masks, or None; greedy first fit finds them whenever they exist."""
    rows = []
    r = 1
    for m in masks:
        while r < hi and slices[r] & m != m:
            r += 1
        if r >= hi:
            return None
        rows.append(r)
        r += 1
    return rows


def _matrix_embedding_search(
    host_extents: tuple[int, ...],
    host_ones,
    pat_extents: tuple[int, ...],
    pat_ones,
) -> tuple[tuple[int, ...], ...] | None:
    """The least embedding, axis 1 first: the least (greedy rows, placement)
    pair, as greedy rows are the least for their placement.  Cost: every
    placement of axes 2..d, prod C(n_i, k_i), on every call, no early exit."""
    if len(pat_extents) != len(host_extents):
        return None
    if any(pk > hk for pk, hk in zip(pat_extents, host_extents)):
        return None
    pat_ones = sorted(pat_ones)
    if not pat_ones:
        return tuple(tuple(range(1, k + 1)) for k in pat_extents)
    if len(host_ones) < len(pat_ones):
        return None
    tail = host_extents[1:]
    slices = [0] * (host_extents[0] + 1)
    for cell in host_ones:
        bit = 0
        for c, n in zip(cell[1:], tail):
            bit = bit * n + c - 1
        slices[cell[0]] |= 1 << bit
    fits = []
    for sels, bits in _placements(pat_ones, pat_extents, tail):
        masks = [0] * pat_extents[0]
        for one, b in zip(pat_ones, bits):
            masks[one[0] - 1] |= 1 << b
        rows = _fit_rows(slices, masks, len(slices))
        if rows is not None:
            fits.append((rows, sels))
    if not fits:
        return None
    rows, sels = min(fits)
    return (tuple(rows),) + tuple(tuple(i + 1 for i in sel) for sel in sels)


def matrix_contains(host: BinaryMatrix, pattern: BinaryMatrix) -> MatrixEmbedding | None:
    """Find a submatrix of the host representing the pattern, or None.

    Returns the lexicographically least embedding (axis 1 indices first).
    A size mismatch simply yields None.
    """
    found = _matrix_embedding_search(
        host.extents, host.ones, pattern.extents, pattern.ones
    )
    return None if found is None else MatrixEmbedding(found)


# ---------------------------------------------------------------------------
# hypergraph containment


def _assign_edges(
    pat_edges: list[Edge], compatible: list[list[int]], host_edges: list[Edge]
) -> list[int] | None:
    """Injective assignment pattern-edge -> host-edge index by backtracking.

    Pattern edges are processed in sorted order and host candidates tried
    in sorted order, so the first complete assignment is the
    lexicographically least valid one.
    """
    used: set[int] = set()
    assignment: list[int] = []

    def descend(i: int) -> bool:
        if i == len(pat_edges):
            return True
        for idx in compatible[i]:
            if idx in used:
                continue
            used.add(idx)
            assignment.append(idx)
            if descend(i + 1):
                return True
            used.discard(idx)
            assignment.pop()
        return False

    return assignment if descend(0) else None


def _hyper_embedding_search(
    host_n: int, host_edges: list[Edge], pat_n: int, pat_edges: list[Edge]
) -> tuple[tuple[int, ...], list[int]] | None:
    """Backtracking over increasing vertex injections with edge-availability
    pruning; edge assignment by lexicographic backtracking."""
    if pat_n > host_n or len(pat_edges) > len(host_edges):
        return None
    host_sets = [set(e) for e in host_edges]
    # per pattern edge: (vertices, index of smallest unmapped vertex position)
    pat_vertex_sets = [set(e) for e in pat_edges]
    f: list[int] = []

    # candidates[i] = host edge indices still compatible with pattern edge i
    def descend(candidates: list[list[int]]) -> tuple | None:
        u = len(f) + 1
        if u > pat_n:
            assignment = _assign_edges(pat_edges, candidates, host_edges)
            if assignment is None:
                return None
            return tuple(f), assignment
        start = f[-1] + 1 if f else 1
        for w in range(start, host_n - (pat_n - u) + 1):
            f.append(w)
            pruned = False
            narrowed = []
            for i, edge in enumerate(pat_edges):
                if u not in pat_vertex_sets[i]:
                    narrowed.append(candidates[i])
                    continue
                remaining = sum(1 for v in edge if v > u)
                kept = []
                for idx in candidates[i]:
                    hs = host_sets[idx]
                    if w not in hs:
                        continue
                    # images of the unmapped vertices of this edge must land
                    # strictly above w inside the same host edge
                    tail = len(host_edges[idx]) - bisect_right(host_edges[idx], w)
                    if tail >= remaining:
                        kept.append(idx)
                if not kept:
                    pruned = True
                    break
                narrowed.append(kept)
            if not pruned:
                found = descend(narrowed)
                if found is not None:
                    return found
            f.pop()
        return None

    initial = []
    for edge in pat_edges:
        size = len(edge)
        initial.append([i for i, h in enumerate(host_edges) if len(h) >= size])
        if not initial[-1]:
            return None
    return descend(initial)


def hypergraph_contains(
    host: OrderedHypergraph, pattern: OrderedHypergraph
) -> HypergraphEmbedding | None:
    """Find an embedding (f, g) of the pattern in the host, or None.

    f is found by exhaustive backtracking in increasing-vertex order; g by
    backtracking over compatible host edges in lexicographic order (plain
    greedy assignment is incomplete when pattern edges nest, so the edge
    map search backtracks while keeping the lexicographically-least
    tie-break).
    """
    pat_edges = pattern.sorted_edges()
    host_edges = host.sorted_edges()
    found = _hyper_embedding_search(host.n, host_edges, pattern.n, pat_edges)
    if found is None:
        return None
    f, assignment = found
    pairs = tuple(
        (edge, host_edges[idx]) for edge, idx in zip(pat_edges, assignment)
    )
    return HypergraphEmbedding(f, pairs)


# ---------------------------------------------------------------------------
# association equivalence


def _uniform_edge_size(*hypergraphs: OrderedHypergraph) -> int | None:
    sizes = {len(e) for h in hypergraphs for e in h.edges}
    if len(sizes) > 1:
        raise InputError(f"inputs are not uniform: edge sizes {sorted(sizes)}")
    return sizes.pop() if sizes else None


@lru_cache(maxsize=1024)
def _partite_matrix(h: OrderedHypergraph, d: int) -> BinaryMatrix:
    """Validate h as d-partite with d equal parts and return its associated matrix.

    Memoised per (graph, d): both are immutable, so the cached matrix can
    be shared.  Exceptions are not cached, so invalid input raises on
    every call.  The helpers are looked up as module globals at call
    time, so a rebinding of ``is_d_partite`` or ``associated_matrix``
    still sees every uncached call.
    """
    if h.n % d != 0 or h.n == 0:
        raise InputError(f"vertex count {h.n} is not d*size for d={d}")
    parts = PartsSpec.equal(d, h.n // d)
    if not is_d_partite(h, parts):
        raise InputError("input is not d-partite with equal parts")
    return associated_matrix(h, parts)


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

    Each distinct graph is validated and associated once per process, so
    a sweep over all pairs pays that work once per graph, not per pair.
    The memo is an LRU cache of 1024 entries: more than 512 because the
    exhaustive sweep at part size 3 cycles through all 512 graphs for
    each host, and a smaller LRU cache would evict every entry before
    its next use.

    Evaluates both routes and raises ConsistencyError if they disagree;
    otherwise returns the shared boolean.
    """
    if host.n != pattern.n:
        raise InputError(
            "the equivalence needs equal vertex counts and part sizes, got "
            f"{host.n} and {pattern.n} vertices"
        )
    inferred = _uniform_edge_size(host, pattern)
    if d is None:
        d = inferred
    if d is None:
        # both edgeless on the same vertices: trivially order-isomorphic
        return True
    if d < 2:
        raise InputError(f"the equivalence needs d >= 2 parts, got d={d}")
    if inferred is not None and inferred != d:
        raise InputError(f"edge size {inferred} does not match d={d}")
    host_m = _partite_matrix(host, d)
    pattern_m = _partite_matrix(pattern, d)
    hyper_side = hypergraph_contains(host, pattern) is not None
    matrix_side = matrix_contains(host_m, pattern_m) is not None
    if hyper_side != matrix_side:
        raise ConsistencyError(
            "hypergraph containment and associated-matrix containment disagree: "
            f"hypergraph={hyper_side} matrix={matrix_side} "
            f"host={host!r} pattern={pattern!r}"
        )
    return hyper_side
