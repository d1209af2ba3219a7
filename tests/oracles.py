"""Definition-level brute force oracles, independent of the package's search code.

These enumerate every candidate object or embedding directly from the
definitions, with no pruning, so they stay independent of the
backtracking implementations they are used to check.  Only usable at
tiny sizes.  The exceptions are earlier versions of the engines and
solvers, kept as references at sizes enumeration cannot reach, and
sharing no code with the package's containment engines:
``reference_matrix_embedding`` (a greedy row scan per placement of axes
2..d) and ``reference_hyper_embedding`` (backtracking over lists of
candidate host edges), the containment engines before their bitmask
candidate sets; ``trivial_bound_max_weight``, the matrix solver before
its suffix bound; and ``engine_max_hyper`` and
``engine_count_avoiders``, the hypergraph solvers before the copy index,
which ask the containment engine at every search node.  And
``transfer_max_weight`` reaches the 2-d values of the benchmark's
tables by a transfer over the host's columns, with no search.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, permutations, product

from patternex import BinaryMatrix, OrderedHypergraph, PartsSpec


def is_matrix(extents, ones) -> bool:
    """A d-dimensional 0-1 matrix by definition: d >= 2 positive extents,
    and each 1-entry a d-tuple whose i-th entry lies in 1..n_i."""
    d = len(extents)
    return (
        d >= 2
        and min(extents) >= 1
        and all(
            len(cell) == d and all(1 <= cell[i] <= extents[i] for i in range(d)) for cell in ones
        )
    )


def is_ordered_hypergraph(n, edges) -> bool:
    """An ordered hypergraph on [n] by definition, with edges written as
    increasing tuples: n >= 0, and each edge a nonempty tuple of distinct
    vertices of 1..n in increasing order."""
    return n >= 0 and all(
        len(edge) > 0 and list(edge) == sorted(set(edge)) and all(1 <= v <= n for v in edge)
        for edge in edges
    )


def brute_least_embedding(host: BinaryMatrix, pattern: BinaryMatrix):
    """The first selection of per-axis index lists, in product order, whose
    submatrix represents the pattern; None when there is none."""
    if host.d != pattern.d:
        return None
    if any(p > h for p, h in zip(pattern.extents, host.extents)):
        return None
    axis_choices = [
        list(combinations(range(1, h + 1), p))
        for p, h in zip(pattern.extents, host.extents)
    ]
    for selection in product(*axis_choices):
        if all(
            tuple(selection[ax][b[ax] - 1] for ax in range(pattern.d)) in host.ones
            for b in pattern.ones
        ):
            return selection
    return None


def brute_matrix_contains(host: BinaryMatrix, pattern: BinaryMatrix) -> bool:
    return brute_least_embedding(host, pattern) is not None


def placements(pat_ones: list, pat_extents: tuple, tail_extents: tuple) -> list:
    """Each choice ``sels`` of 0-based index lists on axes 2..d, in lexicographic
    order, with the bit of each pattern 1-entry in a row-major host slice."""
    out = [((), [0] * len(pat_ones))]
    for axis, n in enumerate(tail_extents, start=1):
        out = [
            (sels + (sel,), [b * n + sel[one[axis] - 1] for b, one in zip(bits, pat_ones)])
            for sels, bits in out
            for sel in combinations(range(n), pat_extents[axis])
        ]
    return out


def fit_rows(slices: list[int], masks: list[int], hi: int) -> list[int] | None:
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


def reference_matrix_embedding(host_extents, host_ones, pat_extents, pat_ones):
    """Reference for ``containment._matrix_embedding_search``: the least
    (greedy rows, placement) pair over every placement of axes 2..d."""
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
    for sels, bits in placements(pat_ones, pat_extents, tail):
        masks = [0] * pat_extents[0]
        for one, b in zip(pat_ones, bits):
            masks[one[0] - 1] |= 1 << b
        rows = fit_rows(slices, masks, len(slices))
        if rows is not None:
            fits.append((rows, sels))
    if not fits:
        return None
    rows, sels = min(fits)
    return (tuple(rows),) + tuple(tuple(i + 1 for i in sel) for sel in sels)


def assign_edges(pat_edges: list, compatible: list[list[int]]) -> list[int] | None:
    """The least injective assignment pattern edge -> host edge index, by
    backtracking over each edge's compatible indices in sorted order."""
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


def reference_hyper_embedding(host_n: int, host_edges: list, pat_n: int, pat_edges: list):
    """Reference for ``containment._hyper_embedding_search``: backtracking
    over increasing vertex maps, narrowing lists of candidate host edges,
    then the least injective edge assignment."""
    if pat_n > host_n or len(pat_edges) > len(host_edges):
        return None
    host_sets = [set(e) for e in host_edges]
    pat_vertex_sets = [set(e) for e in pat_edges]
    f: list[int] = []

    def descend(candidates: list[list[int]]):
        u = len(f) + 1
        if u > pat_n:
            assignment = assign_edges(pat_edges, candidates)
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
                    if w not in host_sets[idx]:
                        continue
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
        initial.append([i for i, h in enumerate(host_edges) if len(h) >= len(edge)])
        if not initial[-1]:
            return None
    return descend(initial)


def sweep_repair(ones: set, pattern: BinaryMatrix, n: int) -> int:
    """One pass over the windows of [n]^d in product order, clearing the
    greatest cell of every copy of the pattern found; returns the
    deletion count and leaves the result in ``ones``."""
    pat_ones = sorted(pattern.ones)
    deletions = 0
    axis_choices = [list(combinations(range(1, n + 1), k)) for k in pattern.extents]
    for selection in product(*axis_choices):
        mapped = [
            tuple(selection[ax][b[ax] - 1] for ax in range(pattern.d)) for b in pat_ones
        ]
        if all(cell in ones for cell in mapped):
            ones.discard(max(mapped))
            deletions += 1
    return deletions


def brute_hypergraph_contains(host: OrderedHypergraph, pattern: OrderedHypergraph) -> bool:
    if pattern.n > host.n:
        return False
    pat_edges = pattern.sorted_edges()
    host_edges = host.sorted_edges()
    if len(pat_edges) > len(host_edges):
        return False
    for f in combinations(range(1, host.n + 1), pattern.n):
        for image in permutations(host_edges, len(pat_edges)):
            if all(
                {f[v - 1] for v in e} <= set(h) for e, h in zip(pat_edges, image)
            ):
                return True
    return False


def brute_part_respecting_contains(
    host: OrderedHypergraph,
    host_parts: PartsSpec,
    pattern: OrderedHypergraph,
    pattern_parts: PartsSpec,
) -> bool:
    """Order containment whose vertex map sends part i of the pattern into
    part i of the host, increasingly within each part.

    Every such vertex map is tried; for each, every choice of host edges
    f(e) <= g(e) is tried and accepted when the choice is injective.
    """
    if host_parts.d != pattern_parts.d:
        return False
    part_maps = [
        combinations(range(h_lo + 1, h_hi + 1), p_hi - p_lo)
        for h_lo, h_hi, p_lo, p_hi in zip(
            host_parts.boundaries,
            host_parts.boundaries[1:],
            pattern_parts.boundaries,
            pattern_parts.boundaries[1:],
        )
    ]
    host_edges = host.sorted_edges()
    for pieces in product(*part_maps):
        f = sum(pieces, ())
        candidates = [
            [h for h in host_edges if {f[v - 1] for v in e} <= set(h)]
            for e in pattern.sorted_edges()
        ]
        if any(len(set(image)) == len(image) for image in product(*candidates)):
            return True
    return False


def all_matrices(extents: tuple[int, ...]):
    cells = list(product(*(range(1, n + 1) for n in extents)))
    for size in range(len(cells) + 1):
        for ones in combinations(cells, size):
            yield BinaryMatrix(extents, frozenset(ones))


def matrix_copy_masks(pattern: BinaryMatrix, n: int) -> set[int]:
    """Reference for the copies that ``search._matrix_index`` numbers: one
    bitmask over the cells of a side-n host, in row-major order, per
    choice of index lists on every axis, each 1-entry's cell numbered
    from its chosen indices."""
    masks = set()
    for selection in product(*(combinations(range(n), k) for k in pattern.extents)):
        mask = 0
        for one in pattern.ones:
            cell = 0
            for axis, index in enumerate(one):
                cell = cell * n + selection[axis][index - 1]
            mask |= 1 << cell
        masks.add(mask)
    return masks


def brute_max_weight(pattern: BinaryMatrix, extents: tuple[int, ...]) -> int | None:
    """Max 1-entries over all matrices of the given extents avoiding the pattern.

    Returns None when no avoider exists.
    """
    best = None
    for m in all_matrices(extents):
        if not brute_matrix_contains(m, pattern):
            if best is None or m.weight > best:
                best = m.weight
    return best


def transfer_max_weight(pattern: BinaryMatrix, rows: int, cols: int) -> int:
    """Max 1-entries of a rows x cols matrix avoiding the 2-d pattern, by a
    transfer over the host's columns, left to right.

    Fix the host rows r_1 < ... < r_k that the pattern's k rows go to.
    The pattern's columns then embed exactly when greedy earliest
    matching places all l of them: scan the host columns and advance past
    pattern column j + 1 at the first host column that holds a 1-entry at
    r_i for each of its 1-entries (i, j + 1).  The state after some host
    columns is that greedy progress, 0..l - 1, for every choice of host
    rows; a host avoids the pattern exactly when no progress reaches l.
    Each step adds one column with every subset of the rows as its
    1-entries, and keeps the greatest weight per state.  Only usable at
    tiny sizes; a pattern larger than the host fits nowhere, so every
    cell is taken.
    """
    k, l = pattern.extents
    if k > rows or l > cols:
        return rows * cols
    choices = list(combinations(range(rows), k))
    # per choice of host rows and pattern column, the host rows the
    # column's 1-entries need
    needs = [
        [sum(1 << chosen[i - 1] for i, j in pattern.ones if j == col) for col in range(1, l + 1)]
        for chosen in choices
    ]
    # per host column (a bitmask over rows), its weight and, per choice,
    # whether it holds the pattern column that each progress waits for
    steps = [
        (mask.bit_count(), [tuple(need & mask == need for need in wanted) for wanted in needs])
        for mask in range(1 << rows)
    ]
    best = {(0,) * len(choices): 0}
    for _ in range(cols):
        after = {}
        for state, weight in best.items():
            for gain, fits in steps:
                moved = tuple(p + fit[p] for p, fit in zip(state, fits))
                if l not in moved and after.get(moved, -1) < weight + gain:
                    after[moved] = weight + gain
        best = after
    return max(best.values())


def brute_canonical_witness(
    pattern: BinaryMatrix, extents: tuple[int, ...]
) -> BinaryMatrix | None:
    """The avoider of maximum weight whose row-major 0/1 vector is greatest.

    This is the witness the include-first search reaches first among the
    optimal ones.  Vectors are visited in decreasing lexicographic order,
    so the first avoider of each new maximum weight is the greatest one.
    Returns None when no avoider exists.
    """
    cells = list(product(*(range(1, n + 1) for n in extents)))
    best = None
    for bits in product((1, 0), repeat=len(cells)):
        if best is not None and sum(bits) <= best.weight:
            continue
        m = BinaryMatrix(extents, frozenset(c for c, b in zip(cells, bits) if b))
        if not brute_matrix_contains(m, pattern):
            best = m
    return best


def trivial_bound_max_weight(pattern: BinaryMatrix, n: int) -> tuple[int, frozenset]:
    """Reference for ``search._solve_matrix_extremal``: the same include-first
    search and anchored check, pruned only by the trivial bound (weight
    plus undecided cells), with the reference row scan as its check."""
    d = pattern.d
    k1 = pattern.extents[0]
    pat_ones = pattern.sorted_ones()
    width = n ** (d - 1)
    bucket: list = [[] for _ in range(width)]
    if pat_ones and max(pattern.extents) <= n:
        a1 = pat_ones[-1][0]
        for _, bits in placements(pat_ones, pattern.extents, (n,) * (d - 1)):
            masks = [0] * a1
            for one, b in zip(pat_ones, bits):
                masks[one[0] - 1] |= 1 << b
            bucket[bits[-1]].append((masks[-1], masks[:-1]))
    else:
        a1 = n + 1
    last = n - k1 + a1

    def anchored(r: int, key: int) -> bool:
        if r < a1 or r > last:
            return False
        row = slices[r]
        return any(
            row & need == need and fit_rows(slices, before, r) is not None
            for need, before in bucket[key]
        )

    cells = list(product(range(1, n + 1), repeat=d))
    total = len(cells)
    slices = [0] * (n + 1)
    ones: list = []
    best_value = -1
    best_ones: frozenset = frozenset()

    def dfs(idx: int, weight: int) -> None:
        nonlocal best_value, best_ones
        if weight + (total - idx) <= best_value:
            return
        if idx == total:
            best_value = weight
            best_ones = frozenset(ones)
            return
        cell = cells[idx]
        r = cell[0]
        key = idx % width
        bit = 1 << key
        slices[r] |= bit
        if not anchored(r, key):
            ones.append(cell)
            dfs(idx + 1, weight + 1)
            ones.pop()
        slices[r] &= ~bit
        dfs(idx + 1, weight)

    dfs(0, 0)
    return best_value, best_ones


def hyper_candidates(n: int, cap: int) -> list:
    """Every edge on [n] of size 1..cap, in lexicographic order."""
    return sorted(e for size in range(1, min(cap, n) + 1) for e in combinations(range(1, n + 1), size))


def engine_max_hyper(n: int, candidates: list, pattern: OrderedHypergraph, mode: str):
    """Reference for ``search._solve_hyper_extremal``: the same include-first
    search over the candidates, pruned only by the trivial bound (score
    plus undecided gain), with one containment engine call per include
    node.  Returns the value and the first optimal edge list."""
    pat_edges = pattern.sorted_edges()
    pn = pattern.n
    total = len(candidates)
    gain = [len(e) if mode == "weight" else 1 for e in candidates]
    suffix = [0] * (total + 1)
    for i in range(total - 1, -1, -1):
        suffix[i] = suffix[i + 1] + gain[i]
    current: list = []
    best = -1
    best_edges: list = []

    def dfs(idx: int, score: int) -> None:
        nonlocal best, best_edges
        if score + suffix[idx] <= best:
            return
        if idx == total:
            best = score
            best_edges = list(current)
            return
        current.append(candidates[idx])
        if reference_hyper_embedding(n, current, pn, pat_edges) is None:
            dfs(idx + 1, score + gain[idx])
        current.pop()
        dfs(idx + 1, score)

    dfs(0, 0)
    return best, best_edges


def engine_count_avoiders(n: int, candidates: list, pattern: OrderedHypergraph) -> int:
    """Reference for ``search.count_avoiders``: the walk over the
    candidates that asks the containment engine whether the branch
    contains the pattern and whether its full completion avoids it."""
    pat_edges = pattern.sorted_edges()
    pn = pattern.n

    def avoids(edge_list: list) -> bool:
        return reference_hyper_embedding(n, edge_list, pn, pat_edges) is None

    if not avoids([]):
        return 0
    current: list = []

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


def subsets_of_edges(n: int, max_size: int | None = None):
    cap = n if max_size is None else min(max_size, n)
    candidates = []
    for size in range(1, cap + 1):
        candidates.extend(combinations(range(1, n + 1), size))
    for count in range(len(candidates) + 1):
        for chosen in combinations(candidates, count):
            yield OrderedHypergraph(n, frozenset(chosen))


def brute_gex(pattern: OrderedHypergraph, n: int) -> int | None:
    best = None
    pairs = list(combinations(range(1, n + 1), 2))
    for count in range(len(pairs) + 1):
        for chosen in combinations(pairs, count):
            g = OrderedHypergraph(n, frozenset(chosen))
            if not brute_hypergraph_contains(g, pattern):
                if best is None or g.edge_count > best:
                    best = g.edge_count
    return best


def brute_hyper_extremal(
    pattern: OrderedHypergraph, n: int, mode: str, max_size: int | None = None
) -> int | None:
    best = None
    for g in subsets_of_edges(n, max_size):
        if not brute_hypergraph_contains(g, pattern):
            score = g.edge_count if mode == "edges" else g.weight
            if best is None or score > best:
                best = score
    return best


def brute_count_avoiders(pattern: OrderedHypergraph, n: int) -> int:
    return sum(
        1 for g in subsets_of_edges(n) if not brute_hypergraph_contains(g, pattern)
    )
