"""Exact extremal values by branch-and-bound, and exact avoider counting.

All solvers share the same canonical search order: decision variables
(cells or candidate edges) are enumerated lexicographically, the
include/1 branch is tried before the exclude/0 branch, and the incumbent
is updated only on strict improvement.  The hypergraph solvers prune
with the trivial bound (current score plus undecided capacity); the
matrix solver prunes with exact suffix values, solved first by the same
search (Russian Doll Search).  A bound prunes only nodes that cannot
strictly beat the incumbent, so the witness is the first optimal leaf in
this order whichever bound is used.  This makes every certificate
deterministic.

A returned :class:`SearchCertificate` is always re-checked through the
public containment API, independently of the solver's internal pruning
logic.  Counting uses exact integer arithmetic throughout.

Capacity limits are explicit arguments with hard errors; nothing is
silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .containment import (
    _fit_rows,
    _hyper_embedding_search,
    # unused here; perfbench/tracing.py rebinds it by name in this module
    _matrix_embedding_search,
    _placements,
    hypergraph_contains,
    matrix_contains,
)
from .errors import CapacityError, InputError, PostconditionError
from .structures import BinaryMatrix, Edge, OrderedHypergraph

DEFAULT_MAX_CELLS = 64
DEFAULT_MAX_GRAPH_CANDIDATES = 28
DEFAULT_MAX_HYPER_CANDIDATES = 20
COUNT_EXACT_MAX_N = 4


@dataclass(frozen=True)
class SearchCertificate:
    """An extremal value, a witness achieving it, and a re-check flag.

    ``verified`` is set only after the witness has passed an independent
    avoidance re-check and its weight has been compared to the value.
    """

    value: int
    witness: BinaryMatrix | OrderedHypergraph
    verified: bool


@dataclass(frozen=True)
class TableRow:
    n: int
    value: int
    witness_ref: str | None = None


@dataclass(frozen=True)
class ExtremalTable:
    """Rows of (n, value, witness reference) for one pattern.

    ``dimension`` is the pattern dimension (2 for graph kinds).  For the
    extremal kinds the values must be nondecreasing in n; avoider counts
    are exempt because adding isolated vertices can flip containment for
    patterns with trailing isolated vertices.
    """

    pattern_id: str
    kind: str  # ex | f | gex | exe | exi | count
    dimension: int
    rows: tuple[TableRow, ...]

    def __post_init__(self) -> None:
        ns = [r.n for r in self.rows]
        if ns != sorted(set(ns)):
            raise PostconditionError(f"table rows not strictly sorted by n: {ns}")
        if self.kind != "count":
            values = [r.value for r in self.rows]
            if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
                raise PostconditionError(f"extremal values decreased: {values}")

    def ratio(self, row: TableRow) -> Fraction:
        """value / n."""
        return Fraction(row.value, row.n)

    def ratio_high_dim(self, row: TableRow) -> Fraction:
        """value / n^(d-1)."""
        return Fraction(row.value, row.n ** (self.dimension - 1))

    def primary_ratio(self, row: TableRow) -> Fraction | None:
        if self.kind == "count":
            return None
        if self.kind == "f":
            return self.ratio_high_dim(row)
        return self.ratio(row)

    def ratios_monotone(self) -> bool:
        """Descriptive: whether the primary ratio is nondecreasing across rows."""
        ratios = [self.primary_ratio(r) for r in self.rows]
        if any(r is None for r in ratios):
            return False
        return all(ratios[i] <= ratios[i + 1] for i in range(len(ratios) - 1))

    @property
    def limit_estimate(self) -> Fraction:
        """Running growth-rate estimate; see :func:`estimate_limit`."""
        return estimate_limit(self)


def estimate_limit(table: ExtremalTable) -> Fraction:
    """Running ratio value(n_max)/n_max; purely descriptive."""
    if not table.rows:
        raise InputError("cannot estimate a limit from an empty table")
    last = table.rows[-1]
    return Fraction(last.value, last.n)


def table_to_csv(table: ExtremalTable) -> str:
    """CSV with columns n, value, ratio, witness_file (ratio as exact p/q)."""
    lines = ["n,value,ratio,witness_file"]
    for r in table.rows:
        ratio = table.primary_ratio(r)
        lines.append(
            f"{r.n},{r.value},{'' if ratio is None else ratio},{r.witness_ref or ''}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# matrix solvers


class _Reached(Exception):
    """Raised at the first leaf that reaches a search's ceiling."""


def _solve_max_weight(pattern: BinaryMatrix, n: int) -> tuple[int, frozenset]:
    """Branch-and-bound over the n^d cells in lexicographic order.

    Each axis-1 slice of the host is kept as a bitmask over the flattened
    axes 2..d.  The incremental containment check is anchored, and the
    anchor is exact: a copy of the pattern absent before the newly set
    cell must use it, every other 1-entry set so far is lexicographically
    smaller, and an embedding preserves lexicographic order, so the new
    cell is the image of the pattern's lexicographically greatest 1-entry.
    The check runs the matrix containment engine on only the placements
    (built once per solve) whose anchor image is the new cell's bit,
    fitting the earlier pattern slices to earlier host slices.

    The pruning bound is Russian Doll Search (Verfaillie, Lemaitre &
    Schiex 1996).  ``suffix[i]``, the most 1-entries cells i.. can hold
    when every earlier cell is 0, bounds what the undecided cells add.
    It is ``suffix[i + 1]`` or one more, so the values are solved from
    the last cell back by this same search, each one stopping at the
    first leaf of weight ``suffix[i + 1] + 1``; the search from cell 0
    gives the value and the witness.  No copy fits in the cells after the
    latest image of the pattern's least 1-entry, so those are 1-entries
    without a search.  A node is pruned only when it cannot strictly beat
    the incumbent, so the witness is still the first optimal leaf of the
    include-first order.
    """
    d = pattern.d
    k1 = pattern.extents[0]
    pat_ones = pattern.sorted_ones()
    width = n ** (d - 1)
    cells = list(product(range(1, n + 1), repeat=d))
    total = len(cells)

    if not pat_ones or max(pattern.extents) > n:
        return total, frozenset(cells)  # the pattern never fits

    # bucket[b]: per placement of axes 2..d putting the anchor on bit b,
    # the mask of the anchor's slice and those of the pattern slices before it
    bucket: list[list[tuple[int, list[int]]]] = [[] for _ in range(width)]
    a1 = pat_ones[-1][0]
    for _, bits in _placements(pat_ones, pattern.extents, (n,) * (d - 1)):
        masks = [0] * a1
        for one, b in zip(pat_ones, bits):
            masks[one[0] - 1] |= 1 << b
        bucket[bits[-1]].append((masks[-1], masks[:-1]))
    last = n - k1 + a1  # pattern slices after the anchor's must fit after r
    # the latest image of the pattern's least 1-entry: no copy starts later
    cut = cells.index(tuple(n - k + p for k, p in zip(pattern.extents, pat_ones[0])))

    def anchored(r: int, key: int) -> bool:
        if r < a1 or r > last:
            return False
        row = slices[r]
        for need, before in bucket[key]:
            if row & need == need and _fit_rows(slices, before, r) is not None:
                return True
        return False

    suffix = list(range(total, -1, -1))  # final for every i > cut
    slices = [0] * (n + 1)
    best = ceiling = 0
    best_slices: list[int] = []

    def dfs(idx: int, weight: int) -> None:
        nonlocal best, best_slices
        if weight + suffix[idx] <= best:
            return
        if idx == total:
            best = weight
            best_slices = slices[:]
            if weight == ceiling:
                raise _Reached
            return
        r = cells[idx][0]
        key = idx % width
        bit = 1 << key
        slices[r] |= bit
        if not anchored(r, key):
            dfs(idx + 1, weight + 1)
        slices[r] &= ~bit
        dfs(idx + 1, weight)

    for start in range(cut, -1, -1):
        ceiling = suffix[start + 1] + 1
        # start 0 keeps the first leaf of the optimal weight, maybe suffix[1]
        best = ceiling - 1 if start else ceiling - 2
        try:
            dfs(start, 0)
        except _Reached:
            slices[:] = [0] * (n + 1)  # the stop skipped the restores
        suffix[start] = best
    return suffix[0], frozenset(
        cell for idx, cell in enumerate(cells) if best_slices[cell[0]] >> idx % width & 1
    )


def _certify_matrix(value: int, witness: BinaryMatrix, pattern: BinaryMatrix) -> SearchCertificate:
    if witness.weight != value:
        raise PostconditionError(
            f"witness weight {witness.weight} does not equal value {value}"
        )
    if matrix_contains(witness, pattern) is not None:
        raise PostconditionError("witness fails the avoidance re-check")
    return SearchCertificate(value, witness, True)


def _reject_if_unavoidable(pattern: BinaryMatrix, n: int) -> None:
    if not pattern.ones and all(k <= n for k in pattern.extents):
        raise InputError(
            "pattern weight 0: every matrix of this size contains it, "
            "the extremal value is undefined"
        )


def _solve_matrix_extremal(
    pattern: BinaryMatrix, n: int, max_cells: int
) -> SearchCertificate:
    d = pattern.d
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if n**d > max_cells:
        shape = "x".join([str(n)] * d)
        raise CapacityError(f"{shape} exceeds the configured cell limit {max_cells}")
    _reject_if_unavoidable(pattern, n)
    value, ones = _solve_max_weight(pattern, n)
    return _certify_matrix(value, BinaryMatrix((n,) * d, ones), pattern)


def ex_matrix(
    pattern: BinaryMatrix, n: int, *, max_cells: int = DEFAULT_MAX_CELLS
) -> SearchCertificate:
    """Maximum 1-entries of an n x n matrix avoiding the 2-dimensional pattern."""
    if pattern.d != 2:
        raise InputError(f"ex_matrix needs a 2-dimensional pattern, got d={pattern.d}")
    return _solve_matrix_extremal(pattern, n, max_cells)


def f_multi(
    pattern: BinaryMatrix, d: int, n: int, *, max_cells: int = DEFAULT_MAX_CELLS
) -> SearchCertificate:
    """Maximum 1-entries of a side-length-n d-matrix avoiding the pattern."""
    if d != pattern.d:
        raise InputError(f"d={d} does not match pattern dimension {pattern.d}")
    return _solve_matrix_extremal(pattern, n, max_cells)


# ---------------------------------------------------------------------------
# graph and hypergraph solvers


def _certify_hypergraph(
    value: int, witness: OrderedHypergraph, pattern: OrderedHypergraph, mode: str
) -> SearchCertificate:
    achieved = witness.edge_count if mode == "edges" else witness.weight
    if achieved != value:
        raise PostconditionError(f"witness achieves {achieved}, value is {value}")
    if hypergraph_contains(witness, pattern) is not None:
        raise PostconditionError("witness fails the avoidance re-check")
    return SearchCertificate(value, witness, True)


def _reject_unavoidable_hypergraph(pattern: OrderedHypergraph, n: int) -> None:
    if not pattern.edges and pattern.n <= n:
        raise InputError(
            "pattern with no edges is contained in every host on this many "
            "vertices, the extremal value is undefined"
        )


def _solve_max_hyper(
    n: int, candidates: list[Edge], pattern: OrderedHypergraph, mode: str
) -> tuple[int, list[Edge]]:
    """Shared include-first branch-and-bound over a fixed candidate edge list."""
    pat_edges = pattern.sorted_edges()
    pn = pattern.n
    total = len(candidates)
    gain = [len(e) if mode == "weight" else 1 for e in candidates]
    suffix = [0] * (total + 1)
    for i in range(total - 1, -1, -1):
        suffix[i] = suffix[i + 1] + gain[i]
    current: list[Edge] = []
    best = -1
    best_edges: list[Edge] = []

    def dfs(idx: int, score: int) -> None:
        nonlocal best, best_edges
        if score + suffix[idx] <= best:
            return
        if idx == total:
            best = score
            best_edges = list(current)
            return
        current.append(candidates[idx])
        if _hyper_embedding_search(n, current, pn, pat_edges) is None:
            dfs(idx + 1, score + gain[idx])
        current.pop()
        dfs(idx + 1, score)

    dfs(0, 0)
    return best, best_edges


def gex_graph(
    pattern: OrderedHypergraph,
    n: int,
    *,
    max_candidates: int = DEFAULT_MAX_GRAPH_CANDIDATES,
) -> SearchCertificate:
    """Maximum edges of an ordered graph on [n] avoiding the 2-uniform pattern."""
    if any(len(e) != 2 for e in pattern.edges):
        raise InputError("gex needs a 2-uniform pattern")
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    count = n * (n - 1) // 2
    if count > max_candidates:
        raise CapacityError(
            f"{count} candidate edges exceed the configured limit {max_candidates}"
        )
    _reject_unavoidable_hypergraph(pattern, n)
    candidates = [tuple(e) for e in combinations(range(1, n + 1), 2)]
    value, edges = _solve_max_hyper(n, candidates, pattern, "edges")
    witness = OrderedHypergraph(n, frozenset(edges))
    return _certify_hypergraph(value, witness, pattern, "edges")


def _hyper_candidates(n: int, cap: int) -> list[Edge]:
    cap = min(cap, n)
    out: list[Edge] = []
    for size in range(1, cap + 1):
        out.extend(combinations(range(1, n + 1), size))
    out.sort()
    return out


def _solve_hyper_extremal(
    pattern: OrderedHypergraph,
    n: int,
    mode: str,
    edge_cap: int | None,
    exact: bool,
    max_candidates: int,
) -> SearchCertificate:
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if exact:
        cap = n
    elif edge_cap is not None:
        if edge_cap < 1:
            raise InputError(f"edge size cap must be >= 1, got {edge_cap}")
        cap = edge_cap
    else:
        cap = max(pattern.n, 1)
    candidates = _hyper_candidates(n, cap)
    if len(candidates) > max_candidates:
        raise CapacityError(
            f"{len(candidates)} candidate edges exceed the configured limit "
            f"{max_candidates}; lower n or the edge size cap"
        )
    _reject_unavoidable_hypergraph(pattern, n)
    value, edges = _solve_max_hyper(n, candidates, pattern, mode)
    witness = OrderedHypergraph(n, frozenset(edges))
    return _certify_hypergraph(value, witness, pattern, mode)


def exe_hyper(
    pattern: OrderedHypergraph,
    n: int,
    *,
    edge_cap: int | None = None,
    exact: bool = False,
    max_candidates: int = DEFAULT_MAX_HYPER_CANDIDATES,
) -> SearchCertificate:
    """Maximum edge count of a hypergraph on [n] avoiding the pattern.

    Candidate edges are restricted to size <= cap (default: the pattern's
    vertex count), mirroring the edge-truncation reduction; pass
    ``exact=True`` to search the full edge universe on tiny n.
    """
    return _solve_hyper_extremal(pattern, n, "edges", edge_cap, exact, max_candidates)


def exi_hyper(
    pattern: OrderedHypergraph,
    n: int,
    *,
    edge_cap: int | None = None,
    exact: bool = False,
    max_candidates: int = DEFAULT_MAX_HYPER_CANDIDATES,
) -> SearchCertificate:
    """Maximum weight (sum of edge sizes) of a hypergraph on [n] avoiding the pattern.

    Same candidate-edge cap semantics as :func:`exe_hyper`; with a cap the
    value is the maximum over hosts whose edges respect the cap.
    """
    return _solve_hyper_extremal(pattern, n, "weight", edge_cap, exact, max_candidates)


def count_avoiders(
    pattern: OrderedHypergraph,
    n: int,
    *,
    edge_size_cap: int | None = None,
    max_candidates: int = DEFAULT_MAX_HYPER_CANDIDATES,
) -> int:
    """Exact number of hypergraphs on [n] avoiding the pattern.

    Without a cap the full edge universe is enumerated, which is limited
    to n <= 4; larger n must pass ``edge_size_cap`` (the count is then
    over hypergraphs whose edges respect the cap).  Enumeration prunes
    both ways: a branch that already contains the pattern contributes
    nothing, and a branch whose full completion still avoids contributes
    a power of two without further splitting.
    """
    if n < 0:
        raise InputError(f"n must be nonnegative, got {n}")
    if edge_size_cap is None:
        if n > COUNT_EXACT_MAX_N:
            raise CapacityError(
                f"exact enumeration is limited to n <= {COUNT_EXACT_MAX_N}; "
                "pass edge_size_cap for larger n"
            )
        cap = max(n, 1)
    else:
        if edge_size_cap < 1:
            raise InputError(f"edge size cap must be >= 1, got {edge_size_cap}")
        cap = edge_size_cap
    candidates = _hyper_candidates(n, cap)
    if len(candidates) > max_candidates:
        raise CapacityError(
            f"{len(candidates)} candidate edges exceed the configured limit "
            f"{max_candidates}"
        )
    pat_edges = pattern.sorted_edges()
    pn = pattern.n

    def avoids(edge_list: list[Edge]) -> bool:
        return _hyper_embedding_search(n, edge_list, pn, pat_edges) is None

    if not avoids([]):
        return 0
    current: list[Edge] = []

    def walk(idx: int) -> int:
        rest = len(candidates) - idx
        if rest == 0:
            return 1
        if avoids(current + candidates[idx:]):
            return 1 << rest
        total = walk(idx + 1)
        current.append(candidates[idx])
        if avoids(current):
            total += walk(idx + 1)
        current.pop()
        return total

    return walk(0)
