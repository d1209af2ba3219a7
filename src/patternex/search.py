"""Exact extremal values by branch-and-bound, and exact avoider counting.

Every solver decides a fixed list of decision variables, the host's
cells or its candidate edges in lexicographic order.  Before it searches
it lists every copy of the pattern once, as a bitmask over the
decisions, and indexes the copies by decision (the copy index).  A host
contains the pattern exactly when it holds one of these copies, so a
search node checks containment with one big-integer AND and never runs
the containment engine.

The extremal solvers share one branch-and-bound driver: the include/1
branch is tried before the exclude/0 branch, the incumbent is updated
only on strict improvement, and nodes are pruned by exact suffix values
solved first by the same search (Russian Doll Search).  A decision that
no live copy uses (no copy that can still be completed) is included with
no exclude branch, since that branch's leaves are the include branch's,
each worth less.  A bound or a skipped branch drops only nodes that
cannot strictly beat the incumbent, so the witness is the first optimal
leaf in this order whichever is used.  This makes every certificate
deterministic.  ``count_avoiders`` walks the same decisions, counts a
branch whose every completion avoids the pattern as a power of two, and
walks one branch of a decision no live copy uses and doubles its count.

Transposing or reversing axes maps the avoiders of a matrix pattern one
to one onto the avoiders of its image, so ``ex`` and ``f`` have one value
on all images, while the search can cost 70x more on one than on
another.  A matrix row with at least ``RANKED_COPIES`` (100) copies,
prod C(n, k_i) counted before any is listed, is therefore split in two.
The value search runs on the image that was cheapest one size down,
counted in search calls, and a first-leaf search, which knows the value
and prunes only by the gain left undecided, finds the first optimal host
of the pattern's own include-first order: the same witness.  The image
wins only if, at n - 1, its calls and the first-leaf search's together
stay below the pattern's own.  The gate takes the n = 5 rows of every
2x2, 2x3 and 3x3 pattern (exactly 100 copies) and the 2x2 rows at n = 6
(225), where the benchmark's tables spend their time.  Smaller rows run
the value search on the pattern alone; the largest row of the default
verify battery has 36 copies, and so does the largest unranked
benchmark row.

A returned :class:`SearchCertificate` is always re-checked through the
public containment API, an engine the solvers do not run.  Counting uses
exact integer arithmetic throughout.

Capacity limits are fixed module constants with hard errors, and
nothing is silently truncated.  Every limit is checked on a count
computed arithmetically, before anything is listed.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from .containment import (
    # unused here: perfbench/tracing.py rebinds both names in this module,
    # and CI's traced smoke run fails without them
    _hyper_embedding_search,
    _matrix_embedding_search,
    hypergraph_contains,
    matrix_contains,
)
from .errors import CapacityError, InputError, PostconditionError
from .structures import BinaryMatrix, Edge, OrderedHypergraph

MAX_CELLS = 64
MAX_GRAPH_CANDIDATES = 28
MAX_HYPER_CANDIDATES = 20
RANKED_COPIES = 100


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

    def primary_ratio(self, row: TableRow) -> Fraction | None:
        """value / n^(d-1) for kind f, value / n for the other extremal
        kinds, and None for avoider counts."""
        if self.kind == "count":
            return None
        exponent = self.dimension - 1 if self.kind == "f" else 1
        return Fraction(row.value, row.n**exponent)

    def ratios_monotone(self) -> bool:
        """Descriptive: whether the primary ratio is nondecreasing across rows."""
        ratios = [self.primary_ratio(r) for r in self.rows]
        if any(r is None for r in ratios):
            return False
        return all(ratios[i] <= ratios[i + 1] for i in range(len(ratios) - 1))


def estimate_limit(table: ExtremalTable) -> Fraction | None:
    """The primary ratio of the last row (value/n^(d-1) for kind f,
    value/n for the other extremal kinds, None for avoider counts);
    purely descriptive."""
    if not table.rows:
        raise InputError("cannot estimate a limit from an empty table")
    return table.primary_ratio(table.rows[-1])


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
# the copy index and the branch-and-bound driver


class _Reached(Exception):
    """Raised at the first leaf that reaches a search's ceiling."""


class _OverBudget(Exception):
    """Raised when a search makes more ``dfs`` calls than it is allowed."""


# _DIGIT[s] maps each byte value to the digit b"0" or b"1" of its bit s
_DIGIT = [bytes(48 + (v >> s & 1) for v in range(256)) for s in range(8)]


def _copy_index(copies: set[int], total: int) -> tuple[list[int], list[int]]:
    """Index the copies, at least one, each a nonempty bitmask over
    ``total`` decisions.

    Returns ``keep`` and ``top``, ints over copy numbers: ``keep[i]`` holds
    the copies that do not use decision i and ``top[i]`` those whose
    greatest decision is i.  Copies are numbered in increasing order of
    their masks, so each ``top[i]`` is one run of bits.  Each ``keep[i]``
    is parsed as a binary numeral from one column of a byte table of all
    masks, so no step costs a Python operation per copy and decision.
    """
    order = sorted(copies)
    top = []
    lo = 0
    for i in range(total):
        hi = bisect_left(order, 2 << i, lo)
        top.append(((1 << (hi - lo)) - 1) << lo)
        lo = hi
    width = (total + 7) // 8
    # the masks of the last copy first, so column i reads as a numeral
    table = b"".join([mask.to_bytes(width, "little") for mask in reversed(order)])
    everything = (1 << len(order)) - 1
    keep = [
        everything ^ int(table[i >> 3 :: width].translate(_DIGIT[i & 7]), 2)
        for i in range(total)
    ]
    return keep, top


def _branch_and_bound(
    gain: list[int], copies: set[int], most_calls: int | None = None
) -> tuple[int, int, int]:
    """The greatest total gain of a set of decisions that holds no copy,
    the first such set of the include-first order, as a bitmask, and the
    number of ``dfs`` calls the search made (the value search).  The
    calls are counted only when ``most_calls`` is given (0 otherwise),
    and a search that needs more raises :class:`_OverBudget`.

    The search takes the decisions in order, the include branch first,
    and updates its incumbent only on strict improvement.  Its state is
    ``live``, an int over copy numbers: the copies with no excluded
    decision so far.  Every decision before ``idx`` is made, so including
    ``idx`` completes a copy exactly when ``live & top[idx]`` is nonzero,
    and excluding it passes ``live & keep[idx]`` down.  With ``live``
    empty no copy can be completed, so every remaining decision is taken.
    When ``live & keep[idx]`` equals ``live``, no live copy uses ``idx``:
    the exclude subtree has the same live sets and leaves as the include
    subtree, each worth ``gain[idx]`` less, and is searched after it, so
    none of its leaves can strictly beat the incumbent.  The node then
    includes ``idx`` with no exclude branch (the degree-0 reduction of
    hitting-set branch-and-bound), and value and set stay the same.

    The pruning bound is Russian Doll Search (Verfaillie, Lemaitre &
    Schiex 1996).  ``suffix[i]``, the greatest gain decisions i.. can add
    when every earlier one is excluded, bounds what the undecided ones
    add.  It lies between ``suffix[i + 1]`` and ``suffix[i + 1] +
    gain[i]``, so the values are solved from the last decision back by
    this same search, each one stopping at the first leaf that reaches
    that ceiling.  A start whose ``live`` set is empty, because no copy
    lies in decisions i.., gets the sum of their gains without a search.
    The search from decision 0 gives the value and the set.  A node is
    pruned only when it cannot strictly beat the incumbent, so the set is
    the first optimal leaf of the include-first order whatever the bound.
    """
    total = len(gain)
    everything = (1 << total) - 1
    if not copies:
        return sum(gain), everything, 0
    keep, top = _copy_index(copies, total)
    rest = _rest(gain)
    # starts[i]: the copies that use no decision before i
    starts = [(1 << len(copies)) - 1]
    for i in range(total - 1):
        starts.append(starts[-1] & keep[i])
    suffix = rest[:]  # final for every start with no copy
    best = ceiling = calls = 0
    best_set = everything

    def dfs(idx: int, score: int, live: int, chosen: int) -> None:
        nonlocal best, best_set
        while score + suffix[idx] > best:
            if not live:
                best = score + rest[idx]
                best_set = chosen | everything >> idx << idx
                if best == ceiling:
                    raise _Reached
                return
            rest_live = live & keep[idx]
            if rest_live == live:  # no live copy uses idx: include it only
                score += gain[idx]
                chosen |= 1 << idx
            else:
                if not live & top[idx]:
                    descend(idx + 1, score + gain[idx], live, chosen | 1 << idx)
                live = rest_live  # the exclude branch, as a loop
            idx += 1

    def counted(idx: int, score: int, live: int, chosen: int) -> None:
        nonlocal calls
        calls += 1
        if calls > most_calls:
            raise _OverBudget
        dfs(idx, score, live, chosen)

    # the count costs an uncounted search nothing
    descend = dfs if most_calls is None else counted
    for start in range(total - 1, -1, -1):
        if not starts[start]:
            continue
        ceiling = suffix[start + 1] + gain[start]
        # start 0 keeps the first leaf of the optimal gain, maybe suffix[1]
        best = suffix[1] - 1 if start == 0 else suffix[start + 1]
        try:
            descend(start, 0, starts[start], 0)
        except _Reached:
            pass
        suffix[start] = best
    return suffix[0], best_set, calls


def _first_leaf(
    gain: list[int], copies: set[int], value: int, most_calls: int | None = None
) -> int:
    """The first set of the include-first order that holds no copy and
    whose total gain reaches ``value``, as a bitmask (the first-leaf
    search); at least one copy.  With ``most_calls`` given, a search that
    needs more ``dfs`` calls raises :class:`_OverBudget`.

    With ``value`` the greatest gain, this is the set
    :func:`_branch_and_bound` returns for these decisions and copies: the
    same tree, walked in the same order with the same degree-0 reduction,
    pruned only where even taking every undecided decision (``rest``)
    cannot reach the value.  No leaf reaches a value above the greatest
    gain, and that raises :class:`PostconditionError`.
    """
    total = len(gain)
    everything = (1 << total) - 1
    keep, top = _copy_index(copies, total)
    rest = _rest(gain)
    found = calls = 0

    def dfs(idx: int, score: int, live: int, chosen: int) -> None:
        nonlocal found
        while score + rest[idx] >= value:
            if not live:
                found = chosen | everything >> idx << idx
                raise _Reached
            rest_live = live & keep[idx]
            if rest_live == live:  # no live copy uses idx: include it only
                score += gain[idx]
                chosen |= 1 << idx
            else:
                if not live & top[idx]:
                    descend(idx + 1, score + gain[idx], live, chosen | 1 << idx)
                live = rest_live
            idx += 1

    def counted(idx: int, score: int, live: int, chosen: int) -> None:
        nonlocal calls
        calls += 1
        if calls > most_calls:
            raise _OverBudget
        dfs(idx, score, live, chosen)

    descend = dfs if most_calls is None else counted
    try:
        descend(0, 0, (1 << len(copies)) - 1, 0)
    except _Reached:
        return found
    raise PostconditionError(f"no set of decisions that holds no copy reaches the value {value}")


def _rest(gain: list[int]) -> list[int]:
    """``rest[i]``: the total gain of decisions i.., with ``rest[len(gain)]`` 0."""
    rest = [0] * (len(gain) + 1)
    for i in range(len(gain) - 1, -1, -1):
        rest[i] = rest[i + 1] + gain[i]
    return rest


# ---------------------------------------------------------------------------
# matrix solvers


def _matrix_copies(pattern: BinaryMatrix, n: int) -> set[int]:
    """Each copy of the pattern in a side-n host, as a bitmask over the
    cells in ``product`` order: one per choice of index lists on every axis."""
    ones = pattern.sorted_ones()
    placed = [[0] * len(ones)]  # per choice so far, the cell number of each 1-entry
    for axis, k in enumerate(pattern.extents):
        placed = [
            [c * n + sel[one[axis] - 1] for c, one in zip(cells, ones)]
            for cells in placed
            for sel in combinations(range(n), k)
        ]
    return {sum(1 << c for c in cells) for cells in placed}


def _matrix_images(pattern: BinaryMatrix) -> list[BinaryMatrix]:
    """The distinct images of the pattern under axis permutations and
    reversals, the pattern first, then in order of the permutation
    (``itertools.permutations``) and of the reversed axes as a bitmask."""
    images = {}  # a dict keeps the first of equal images, in order
    for perm in permutations(range(pattern.d)):
        extents = tuple(pattern.extents[a] for a in perm)
        for mask in range(1 << pattern.d):
            ones = frozenset(
                tuple(
                    extents[i] + 1 - one[a] if mask >> i & 1 else one[a]
                    for i, a in enumerate(perm)
                )
                for one in pattern.ones
            )
            images[BinaryMatrix(extents, ones)] = None
    return list(images)


def _cheapest_image(pattern: BinaryMatrix, n: int) -> BinaryMatrix:
    """The image of the pattern to take a side-n row's value from.

    Each image's avoiders are the images of the pattern's, so every image
    has the same value, but the search can cost 70x more on one image
    than on another.  A row with fewer than ``RANKED_COPIES`` copies
    takes the pattern itself.  Otherwise every distinct image is solved
    at side n - 1 by the value search, counting its ``dfs`` calls, and
    the one with the fewest wins, ties going to the earlier in
    :func:`_matrix_images` order, the pattern first.  An image other than
    the pattern also needs the first-leaf search over the pattern's
    copies, so it is taken only if its calls and that search's, at
    n - 1, stay below the pattern's own.  Each search stops once it can
    no longer win, so an image that is slow at n - 1 costs no more than
    the cheapest one.
    """
    if math.prod(math.comb(n, k) for k in pattern.extents) < RANKED_COPIES:
        return pattern
    images = _matrix_images(pattern)
    if len(images) == 1:
        return pattern
    gain = [1] * (n - 1) ** pattern.d
    copies = _matrix_copies(pattern, n - 1)
    value, _, own = _branch_and_bound(gain, copies, sys.maxsize)
    cheapest, fewest = pattern, own
    for image in images[1:]:
        try:
            calls = _branch_and_bound(gain, _matrix_copies(image, n - 1), fewest - 1)[2]
        except _OverBudget:
            continue
        if calls < fewest:  # a row with no copies at n - 1 makes no call
            cheapest, fewest = image, calls
    if cheapest is not pattern:
        try:
            _first_leaf(gain, copies, value, own - fewest - 1)
        except _OverBudget:
            return pattern
    return cheapest


def _solve_max_weight(pattern: BinaryMatrix, n: int) -> tuple[int, frozenset]:
    """The most 1-entries of a side-n host avoiding the pattern, and the
    first optimal host of the include-first order over the n^d cells in
    lexicographic order.  The decisions are the cells, each of gain 1, and
    the copies are the pattern's copies; a host contains the pattern
    exactly when it holds one of them.  The value search
    (:func:`_branch_and_bound`) runs on :func:`_cheapest_image`; when that
    is not the pattern itself, the first-leaf search over the pattern's
    copies finds the host.
    """
    cells = list(product(range(1, n + 1), repeat=pattern.d))
    if not pattern.ones or max(pattern.extents) > n:
        return len(cells), frozenset(cells)  # the pattern never fits
    gain = [1] * len(cells)
    image = _cheapest_image(pattern, n)
    value, chosen, _ = _branch_and_bound(gain, _matrix_copies(image, n))
    if image is not pattern:
        chosen = _first_leaf(gain, _matrix_copies(pattern, n), value)
    return value, frozenset(cell for i, cell in enumerate(cells) if chosen >> i & 1)


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


def _solve_matrix_extremal(pattern: BinaryMatrix, n: int) -> SearchCertificate:
    d = pattern.d
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if n**d > MAX_CELLS:
        shape = "x".join([str(n)] * d)
        raise CapacityError(f"{shape} exceeds the cell limit {MAX_CELLS}")
    _reject_if_unavoidable(pattern, n)
    value, ones = _solve_max_weight(pattern, n)
    return _certify_matrix(value, BinaryMatrix((n,) * d, ones), pattern)


def ex_matrix(pattern: BinaryMatrix, n: int) -> SearchCertificate:
    """Maximum 1-entries of an n x n matrix avoiding the 2-dimensional pattern."""
    if pattern.d != 2:
        raise InputError(f"ex_matrix needs a 2-dimensional pattern, got d={pattern.d}")
    return _solve_matrix_extremal(pattern, n)


def f_multi(pattern: BinaryMatrix, d: int, n: int) -> SearchCertificate:
    """Maximum 1-entries of a side-length-n d-matrix avoiding the pattern."""
    if d != pattern.d:
        raise InputError(f"d={d} does not match pattern dimension {pattern.d}")
    return _solve_matrix_extremal(pattern, n)


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


def _candidate_edges(n: int, smallest: int, largest: int, limit: int) -> list[Edge]:
    """The edges on [n] of sizes ``smallest`` to ``largest``, in
    lexicographic order.  They are counted with ``math.comb`` first, and
    more than ``limit`` of them raise :class:`CapacityError` before any is
    listed, so a refusal costs at most ``limit + 1`` binomials whatever n."""
    sizes = range(smallest, min(largest, n) + 1)
    count = 0
    for size in sizes:
        count += math.comb(n, size)
        if count > limit:
            raise CapacityError(
                f"at least {count} candidate edges of size at most {largest} "
                f"on {n} vertices exceed the limit {limit}"
            )
    edges: list[Edge] = []
    for size in sizes:
        edges += combinations(range(1, n + 1), size)
    edges.sort()
    return edges


def _hyper_copies(n: int, candidates: list[Edge], pattern: OrderedHypergraph) -> set[int]:
    """Each copy of the pattern among the candidate edges, as a bitmask over
    the candidates: for each increasing vertex map f, each injective choice
    of a candidate containing f(e) for every pattern edge e.  The empty
    mask is a copy when the pattern has no edges and fits.

    f is built one vertex at a time, and each pattern edge is given its
    candidates as soon as its greatest vertex is mapped, so maps that
    share a prefix share that work and a prefix with no choice is cut.
    """
    pn = pattern.n
    if pn > n:  # no increasing map
        return set()
    containing = [0] * (n + 1)  # per host vertex, the candidates holding it
    for i, edge in enumerate(candidates):
        for v in edge:
            containing[v] |= 1 << i
    ending: list[list[Edge]] = [[] for _ in range(pn + 1)]
    for edge in pattern.sorted_edges():
        ending[edge[-1]].append(edge)
    f = [0] * (pn + 1)
    copies: set[int] = set()

    def extend(u: int, chosen: list[int]) -> None:
        # chosen: the injective choices for the edges of vertices below u
        if u > pn:
            copies.update(chosen)
            return
        for w in range(f[u - 1] + 1, n - pn + u + 1):
            f[u] = w
            now = chosen
            for edge in ending[u]:
                fits = containing[w]
                for v in edge[:-1]:
                    fits &= containing[f[v]]
                if fits & (fits - 1):
                    now = [c | b for c in now for b in _bits(fits & ~c)]
                else:  # one candidate or none
                    now = [c | fits for c in now if fits and not c & fits]
                if not now:
                    break
            else:
                extend(u + 1, now)

    extend(1, [0])
    return copies


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, least first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _solve_max_hyper(
    n: int, candidates: list[Edge], pattern: OrderedHypergraph, mode: str
) -> tuple[int, list[Edge]]:
    """The greatest edge count or weight of a host of candidate edges that
    avoids the pattern, and the first optimal host of the include-first
    order.  The decisions of :func:`_branch_and_bound` are the candidates,
    each of gain 1 or its size, and its copies are the pattern's copies."""
    gain = [len(e) if mode == "weight" else 1 for e in candidates]
    value, chosen, _ = _branch_and_bound(gain, _hyper_copies(n, candidates, pattern))
    return value, [e for i, e in enumerate(candidates) if chosen >> i & 1]


def gex_graph(pattern: OrderedHypergraph, n: int) -> SearchCertificate:
    """Maximum edges of an ordered graph on [n] avoiding the 2-uniform pattern."""
    if any(len(e) != 2 for e in pattern.edges):
        raise InputError("gex needs a 2-uniform pattern")
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    candidates = _candidate_edges(n, 2, 2, MAX_GRAPH_CANDIDATES)
    _reject_unavoidable_hypergraph(pattern, n)
    value, edges = _solve_max_hyper(n, candidates, pattern, "edges")
    witness = OrderedHypergraph(n, frozenset(edges))
    return _certify_hypergraph(value, witness, pattern, "edges")


def _size_cap(edge_cap: int | None, default: int) -> int:
    if edge_cap is None:
        return default
    if edge_cap < 1:
        raise InputError(f"edge size cap must be >= 1, got {edge_cap}")
    return edge_cap


def _solve_hyper_extremal(
    pattern: OrderedHypergraph, n: int, mode: str, edge_cap: int | None
) -> SearchCertificate:
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    cap = _size_cap(edge_cap, max(pattern.n, 1))
    candidates = _candidate_edges(n, 1, cap, MAX_HYPER_CANDIDATES)
    _reject_unavoidable_hypergraph(pattern, n)
    value, edges = _solve_max_hyper(n, candidates, pattern, mode)
    witness = OrderedHypergraph(n, frozenset(edges))
    return _certify_hypergraph(value, witness, pattern, mode)


def exe_hyper(
    pattern: OrderedHypergraph, n: int, *, edge_cap: int | None = None
) -> SearchCertificate:
    """Maximum edge count of a hypergraph on [n] avoiding the pattern.

    Candidate edges are restricted to size <= cap (default: the pattern's
    vertex count), mirroring the edge-truncation reduction; ``edge_cap=n``
    searches the full edge universe on tiny n.
    """
    return _solve_hyper_extremal(pattern, n, "edges", edge_cap)


def exi_hyper(
    pattern: OrderedHypergraph, n: int, *, edge_cap: int | None = None
) -> SearchCertificate:
    """Maximum weight (sum of edge sizes) of a hypergraph on [n] avoiding the pattern.

    Same candidate-edge cap semantics as :func:`exe_hyper`; with a cap the
    value is the maximum over hosts whose edges respect the cap.
    """
    return _solve_hyper_extremal(pattern, n, "weight", edge_cap)


def count_avoiders(
    pattern: OrderedHypergraph, n: int, *, edge_size_cap: int | None = None
) -> int:
    """Exact number of hypergraphs on [n] avoiding the pattern.

    Without a cap the full edge universe is enumerated; its 2^n - 1
    candidate edges keep it under the candidate limit up to n = 4, so
    larger n must pass ``edge_size_cap`` (the count is then over
    hypergraphs whose edges respect the cap).  Enumeration prunes
    both ways: a branch that already contains the pattern contributes
    nothing, and a branch whose full completion still avoids contributes
    a power of two without further splitting.  Both tests read the copy
    index: including a candidate completes a copy when ``live & top`` is
    nonzero, and the full completion avoids when ``live`` is empty.  A
    candidate that no live copy uses (``live & keep`` equals ``live``)
    leaves both branches the same completions, so one branch is walked
    and its count doubled.
    """
    if n < 0:
        raise InputError(f"n must be nonnegative, got {n}")
    cap = _size_cap(edge_size_cap, n)
    candidates = _candidate_edges(n, 1, cap, MAX_HYPER_CANDIDATES)
    copies = _hyper_copies(n, candidates, pattern)
    if not copies:
        return 1 << len(candidates)
    if 0 in copies:
        return 0  # the empty host already contains the pattern
    keep, top = _copy_index(copies, len(candidates))

    def walk(idx: int, live: int) -> int:
        # live: the copies with no excluded candidate before idx
        if not live:
            return 1 << (len(candidates) - idx)
        rest_live = live & keep[idx]
        if rest_live == live:  # no live copy uses idx: both branches agree
            return walk(idx + 1, live) << 1
        total = walk(idx + 1, rest_live)
        if not live & top[idx]:
            total += walk(idx + 1, live)
        return total

    return walk(0, (1 << len(copies)) - 1)
