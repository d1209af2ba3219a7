"""Independent containment checks used to confirm the library's answers.

They work on plain tuples and sets, never on the library's classes or
search code, so a defect in the library cannot hide itself here.  Both
are exhaustive; they run outside the timed phase.
"""

from __future__ import annotations

from itertools import combinations, product


def matrix_contains(host_extents, host_ones, pat_extents, pat_ones) -> bool:
    """Whether some submatrix of the host has 1s wherever the pattern has 1s.

    Every index selection on the first d-1 axes is enumerated.  With those
    fixed, each pattern index on the last axis has its own set of feasible
    host indices, so choosing the least feasible index above the previous
    one (greedy) finds an increasing choice whenever one exists.
    """
    d = len(pat_extents)
    if len(host_extents) != d or any(p > h for p, h in zip(pat_extents, host_extents)):
        return False
    k_last, h_last = pat_extents[-1], host_extents[-1]
    by_last: list[list[tuple[int, ...]]] = [[] for _ in range(k_last + 1)]
    for entry in pat_ones:
        by_last[entry[-1]].append(entry[:-1])
    ones = set(host_ones)
    prefix_choices = [
        combinations(range(1, h + 1), k)
        for k, h in zip(pat_extents[:-1], host_extents[:-1])
    ]
    for sel in product(*prefix_choices):
        prev = 0
        for t in range(1, k_last + 1):
            heads = [tuple(sel[a][b[a] - 1] for a in range(d - 1)) for b in by_last[t]]
            c = prev + 1
            while c <= h_last - (k_last - t):
                if all(head + (c,) in ones for head in heads):
                    break
                c += 1
            else:
                break
            prev = c
        else:
            return True
    return False


def _has_matching(compatible: list[list[int]]) -> bool:
    """Whether every left vertex can be matched to a distinct right vertex."""
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for j in compatible[i]:
            if j in seen:
                continue
            seen.add(j)
            if j not in owner or augment(owner[j], seen):
                owner[j] = i
                return True
        return False

    return all(augment(i, set()) for i in range(len(compatible)))


def hypergraph_contains(host_n, host_edges, pat_n, pat_edges) -> bool:
    """Whether an increasing vertex map f and an injective edge map g exist
    with f(e) a subset of g(e) for every pattern edge e.

    Every increasing f is enumerated; for each, g is a bipartite matching
    between pattern edges and the host edges that cover their images.
    """
    host_sets = [frozenset(e) for e in host_edges]
    if pat_n > host_n or len(pat_edges) > len(host_sets):
        return False
    for f in combinations(range(1, host_n + 1), pat_n):
        compatible = []
        for edge in pat_edges:
            image = {f[v - 1] for v in edge}
            options = [j for j, h in enumerate(host_sets) if image <= h]
            if not options:
                break
            compatible.append(options)
        else:
            if _has_matching(compatible):
                return True
    return False
