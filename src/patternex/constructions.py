"""Explicit constructions used by the verification pipeline.

Every constructor re-checks its claimed properties (containment,
avoidance, counts, boundary conditions) through the containment module
on the object it just built, raising PostconditionError instead of
returning an unverified object.  Randomized constructions are
reproducible: the generator algorithm is named in the emitted
statistics and per-trial seeds are derived as seed XOR trial index.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .containment import (
    HypergraphEmbedding,
    MatrixEmbedding,
    hypergraph_contains,
    matrix_contains,
    placement_table_bits,
    verify_hypergraph_embedding,
)
from .errors import CapacityError, InputError, PostconditionError
from .structures import (
    BinaryMatrix,
    Coord,
    Edge,
    OrderedHypergraph,
    PartsSpec,
    associated_hypergraph,
    associated_matrix,
    is_d_permutation_hypergraph,
)

RNG_ALGORITHM = "python-random-mt19937"

CAP_MODES = ("kd", "(k+d)d")

# the most submatrix windows the deletion repair sweeps, and the most
# vertex entries or coordinates a blow-up or a cyclic pattern may hold
MAX_CONSTRUCTION_SIZE = 2_000_000


# ---------------------------------------------------------------------------
# deterministic constructions


def corner_pad(pattern: BinaryMatrix) -> BinaryMatrix:
    """Append a row and a column, anchoring a 1 in the bottom-left corner.

    The input sits on rows 1..k, columns 2..k+1 of the output, and the
    output has an extra 1-entry at (k+1, 1).  A permutation matrix stays
    a permutation matrix.
    """
    if pattern.d != 2:
        raise InputError("corner_pad needs a 2-dimensional pattern")
    k1, k2 = pattern.extents
    if k1 != k2:
        raise InputError(f"corner_pad needs a square pattern, got {k1}x{k2}")
    ones = {(i, j + 1) for i, j in pattern.ones}
    ones.add((k1 + 1, 1))
    out = BinaryMatrix((k1 + 1, k2 + 1), frozenset(ones))
    if matrix_contains(out, pattern) is None:
        raise PostconditionError("corner_pad output does not contain its input")
    return out


def bipartite_double(graph: OrderedHypergraph) -> BinaryMatrix:
    """The n x n matrix with a 1 at (i, j) for every edge {i, j}, i < j."""
    if any(len(e) != 2 for e in graph.edges):
        raise InputError("bipartite_double needs a 2-uniform graph")
    if graph.n < 1:
        raise InputError("bipartite_double needs at least one vertex")
    ones = frozenset((u, v) for u, v in graph.edges)
    out = BinaryMatrix((graph.n, graph.n), ones)
    assert out.weight == graph.edge_count
    return out


def blowup_graph(bipartite: OrderedHypergraph, t: int) -> OrderedHypergraph:
    """Replicate a bipartite graph across t consecutive vertex intervals.

    The input lives on [2n] with parts [n] and [n+1..2n] and every edge
    crossing; the output lives on [nt] and copies each crossing edge
    between every pair of consecutive length-n intervals, giving exactly
    (t-1) * |E| edges.
    """
    if t < 2:
        raise InputError(f"interval count t must be >= 2, got {t}")
    if any(len(e) != 2 for e in bipartite.edges):
        raise InputError("blowup_graph needs a 2-uniform graph")
    if bipartite.n % 2 != 0 or bipartite.n == 0:
        raise InputError(f"host must live on [2n], got {bipartite.n} vertices")
    n = bipartite.n // 2
    for u, v in sorted(bipartite.edges):
        if not (u <= n < v):
            raise InputError(f"edge {(u, v)} does not cross the parts [{n}] and [n+1..2n]")
    entries = 2 * (t - 1) * bipartite.edge_count
    if entries > MAX_CONSTRUCTION_SIZE:
        raise CapacityError(
            f"a blow-up of {entries} vertex entries exceeds the limit {MAX_CONSTRUCTION_SIZE}"
        )
    edges = set()
    for u, v in bipartite.edges:
        j = v - n
        for k in range(1, t):
            edges.add(((k - 1) * n + u, k * n + j))
    out = OrderedHypergraph(n * t, frozenset(edges))
    if out.edge_count != (t - 1) * bipartite.edge_count:
        raise PostconditionError("blow-up edge count identity failed")
    return out


def cyclic_pattern(d: int) -> BinaryMatrix:
    """The d-matrix of side d with 1s at all d cyclic shifts of (1, ..., d)."""
    if d < 2:
        raise InputError(f"dimension must be >= 2, got {d}")
    if d * d > MAX_CONSTRUCTION_SIZE:
        raise CapacityError(
            f"a cyclic pattern of {d * d} coordinates exceeds the limit {MAX_CONSTRUCTION_SIZE}"
        )
    ones = set()
    for shift in range(d):
        ones.add(tuple(((j + shift) % d) + 1 for j in range(d)))
    return BinaryMatrix((d,) * d, frozenset(ones))


def satisfies_boundary_condition(hypergraph: OrderedHypergraph, d: int | None = None) -> bool:
    """Every consecutive-part boundary pair {i*t, i*t+1} lies inside some edge.

    The input must be d-uniform on d equal parts of size t; for each
    i in [d-1] some edge must be a superset of {i*t, i*t+1}.
    """
    if d is None:
        sizes = {len(e) for e in hypergraph.edges}
        if len(sizes) != 1:
            raise InputError("cannot infer d from a non-uniform hypergraph")
        d = sizes.pop()
    if d < 2 or hypergraph.n % d != 0 or hypergraph.n == 0:
        raise InputError(f"{hypergraph.n} vertices do not split into d={d} equal parts")
    t = hypergraph.n // d
    for i in range(1, d):
        pair = {i * t, i * t + 1}
        if not any(pair <= set(e) for e in hypergraph.edges):
            return False
    return True


def cyclic_pad(hypergraph: OrderedHypergraph) -> OrderedHypergraph:
    """Embed a d-permutation hypergraph of length k into one of length k+d-1
    that contains it and anchors every part boundary.

    The associated matrix is substituted for the (1, ..., d) entry of the
    cyclic d-pattern; the remaining d-1 cyclic entries land next to the
    part boundaries.  All claimed properties are re-checked.
    """
    k = is_d_permutation_hypergraph(hypergraph)
    if k is None:
        raise InputError("input is not a d-permutation hypergraph")
    d = len(next(iter(hypergraph.edges)))
    base = associated_matrix(hypergraph, PartsSpec.equal(d, k))
    side = k + d - 1
    ones: set[Coord] = set()
    # the substituted block: axis l of the special entry expands to l..l+k-1
    for coord in base.ones:
        ones.add(tuple(c + axis for axis, c in enumerate(coord)))
    # remaining cyclic entries, shifted around the block
    for entry in cyclic_pattern(d).ones - {tuple(range(1, d + 1))}:
        ones.add(tuple(q if q < axis else q + k - 1 for axis, q in enumerate(entry, start=1)))
    padded_matrix = BinaryMatrix((side,) * d, frozenset(ones))
    padded, _ = associated_hypergraph(padded_matrix)
    if is_d_permutation_hypergraph(padded) != side:
        raise PostconditionError("padded object is not a permutation hypergraph of the claimed length")
    if hypergraph_contains(padded, hypergraph) is None:
        raise PostconditionError("padded hypergraph does not contain its input")
    if not satisfies_boundary_condition(padded, d):
        raise PostconditionError("padded hypergraph misses a part boundary pair")
    return padded


def chain_patterns(start: BinaryMatrix, up_to_length: int) -> list[BinaryMatrix]:
    """Grow a d-permutation matrix one cross-section at a time.

    Each step inserts a fresh 1-entry immediately after the first
    cross-section on every axis (new coordinate 2 on each axis), so each
    output contains its predecessor.  When the starting hypergraph
    anchors every part boundary, every step must preserve that and is
    re-checked.  The returned list starts with the input.

    Raises :class:`CapacityError` before building any step when the last
    step's containment re-check would need a placement table past
    ``MAX_TABLE_BITS``; that table is the largest of the chain.
    """
    hypergraph = associated_hypergraph(start)[0]
    length = is_d_permutation_hypergraph(hypergraph)
    if length is None:
        raise InputError("chain_patterns needs a d-permutation matrix")
    d = start.d
    if up_to_length > length:
        placement_table_bits((up_to_length - 1,) * (d - 1), (up_to_length,) * (d - 1))
    boundary_required = satisfies_boundary_condition(hypergraph, d)
    chain = [start]
    current = start
    while length < up_to_length:
        ones = {
            tuple(c + 1 if c >= 2 else c for c in coord) for coord in current.ones
        }
        ones.add((2,) * d)
        length += 1
        grown = BinaryMatrix((length,) * d, frozenset(ones))
        hypergraph = associated_hypergraph(grown)[0]
        if is_d_permutation_hypergraph(hypergraph) != length:
            raise PostconditionError("chain step produced a non-permutation matrix")
        if matrix_contains(grown, current) is None:
            raise PostconditionError("chain step does not contain its predecessor")
        if boundary_required and not satisfies_boundary_condition(hypergraph, d):
            raise PostconditionError("chain step lost the part boundary condition")
        chain.append(grown)
        current = grown
    return chain


@dataclass(frozen=True)
class NormalizeReport:
    """Bookkeeping for the edge-normalization step."""

    cap_mode: str
    cap: int
    removed_small: int
    truncated: int
    multiplicities: tuple[tuple[Edge, int], ...]

    @property
    def max_multiplicity(self) -> int:
        return max((m for _, m in self.multiplicities), default=0)


def normalize_edges(
    hypergraph: OrderedHypergraph, k: int, d: int, cap_mode: str = "kd"
) -> tuple[OrderedHypergraph, OrderedHypergraph, NormalizeReport]:
    """Drop edges smaller than d, then truncate oversized edges.

    Edges larger than the cap (k*d by default, (k+d)*d behind the flag)
    are replaced by their cap smallest vertices.  The report measures the
    actual preimage multiplicity of every truncated-to edge rather than
    asserting a bound.
    """
    if k < 1 or d < 2:
        raise InputError(f"need k >= 1 and d >= 2, got k={k}, d={d}")
    if cap_mode not in CAP_MODES:
        raise InputError(f"cap mode must be one of {CAP_MODES}, got {cap_mode!r}")
    cap = k * d if cap_mode == "kd" else (k + d) * d
    kept = [e for e in hypergraph.sorted_edges() if len(e) >= d]
    trimmed = OrderedHypergraph(hypergraph.n, frozenset(kept))
    truncated = 0
    images: Counter = Counter()
    for edge in kept:
        if len(edge) > cap:
            images[edge[:cap]] += 1
            truncated += 1
        else:
            images[edge] += 1
    out = OrderedHypergraph(hypergraph.n, frozenset(images))
    report = NormalizeReport(
        cap_mode=cap_mode,
        cap=cap,
        removed_small=hypergraph.edge_count - trimmed.edge_count,
        truncated=truncated,
        multiplicities=tuple(sorted(images.items())),
    )
    return trimmed, out, report


def interval_contract(hypergraph: OrderedHypergraph, t: int) -> OrderedHypergraph:
    """Contract each length-t vertex interval to a single vertex.

    An edge maps to the set of interval indices it touches; duplicate
    images are merged.
    """
    if t < 1:
        raise InputError(f"interval length must be >= 1, got {t}")
    if hypergraph.n % t != 0:
        raise InputError(f"{hypergraph.n} vertices do not split into intervals of {t}")
    edges = {
        tuple(sorted({(v - 1) // t + 1 for v in edge})) for edge in hypergraph.edges
    }
    return OrderedHypergraph(hypergraph.n // t, frozenset(edges))


def graph_copy_from_doubling(
    graph: OrderedHypergraph, pattern: BinaryMatrix, embedding: MatrixEmbedding
) -> HypergraphEmbedding:
    """Pull a pattern copy in the doubled matrix back to a graph embedding.

    Given a corner-anchored pattern and an embedding witnessing that
    :func:`bipartite_double` of the graph contains it, the selected rows
    must all precede the selected columns, so rows followed by columns
    form an increasing vertex injection and each pattern 1-entry yields a
    graph edge.  The rebuilt embedding is verified before it is returned.
    """
    if pattern.d != 2:
        raise InputError("a 2-dimensional pattern is required")
    k1, k2 = pattern.extents
    if (k1, 1) not in pattern.ones:
        raise InputError("pattern must carry a 1-entry at (k_1, 1)")
    rows, cols = embedding.axis_indices
    if len(rows) != k1 or len(cols) != k2:
        raise InputError("embedding shape does not match the pattern")
    if rows[-1] >= cols[0]:
        raise PostconditionError(
            "selected rows do not precede selected columns; the embedding does "
            "not come from a doubled graph"
        )
    associated, _ = associated_hypergraph(pattern)
    vertex_map = rows + cols
    pairs = []
    for i, j in sorted(pattern.ones):
        host_edge = (rows[i - 1], cols[j - 1])
        if host_edge not in graph.edges:
            raise PostconditionError(f"rebuilt edge {host_edge} is missing from the graph")
        pairs.append(((i, k1 + j), host_edge))
    rebuilt = HypergraphEmbedding(vertex_map, tuple(sorted(pairs)))
    if not verify_hypergraph_embedding(graph, associated, rebuilt):
        raise PostconditionError("rebuilt embedding failed verification")
    return rebuilt


# ---------------------------------------------------------------------------
# randomized construction


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the seeded random deletion-repair generator."""

    pattern: BinaryMatrix
    side: int
    p: float
    seed: int
    trials: int = 1

    def __post_init__(self) -> None:
        if self.side < 1:
            raise InputError(f"side must be positive, got {self.side}")
        if not 0.0 < self.p <= 1.0:
            raise InputError(f"density must lie in (0, 1], got {self.p}")
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must be an unsigned 64-bit integer")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.pattern.weight <= 1:
            raise InputError(
                f"pattern weight must be >= 2, got {self.pattern.weight}"
            )


@dataclass(frozen=True)
class TrialStats:
    """Empirical statistics of one deletion-repair trial."""

    trial: int
    seed: int
    p: float
    initial_weight: int
    deletions: int
    final_weight: int
    analytic_target: float
    rng_algorithm: str = RNG_ALGORITHM


def default_density(pattern: BinaryMatrix, side: int) -> float:
    """The density (1/2) * n^(-(sum k_i - d) / (w - 1)) used by the generator."""
    if pattern.weight <= 1:
        raise InputError(f"pattern weight must be >= 2, got {pattern.weight}")
    exponent = (sum(pattern.extents) - pattern.d) / (pattern.weight - 1)
    return 0.5 * side ** (-exponent)


def analytic_expected_weight(pattern: BinaryMatrix, side: int, p: float) -> float:
    """n^d p - (e n)^(sum k_i) / prod(k_i^k_i) * p^w, the repair lower-bound target."""
    d = pattern.d
    w = pattern.weight
    numerator = (math.e * side) ** sum(pattern.extents)
    denominator = 1.0
    for k in pattern.extents:
        denominator *= float(k) ** k
    return side**d * p - numerator / denominator * p**w


def random_avoider(config: GeneratorConfig, trial: int = 0) -> tuple[BinaryMatrix, TrialStats]:
    """Sample a random d-matrix and repair it into a guaranteed avoider.

    Entries are 1 independently with probability p (seeded, one trial
    uses seed XOR trial index).  While :func:`matrix_contains` finds a
    copy, the image of the pattern's greatest 1-entry in the least copy
    is cleared: the deletions of one lexicographic sweep over the
    submatrix windows, as a passed window never holds a copy again.  One
    call costs at most a greedy row scan for each of the
    windows / C(n, k_1) placements of axes 2..d, and a call that finds a
    copy stops at it.
    """
    if not 0 <= trial < config.trials:
        raise InputError(f"trial {trial} outside 0..{config.trials - 1}")
    pattern = config.pattern
    n = config.side
    d = pattern.d
    windows = math.prod(math.comb(n, k) for k in pattern.extents)
    if windows > MAX_CONSTRUCTION_SIZE:
        raise CapacityError(
            f"{windows} submatrix windows exceed the limit {MAX_CONSTRUCTION_SIZE}"
        )
    seed = config.seed ^ trial
    rng = random.Random(seed)
    ones = {
        cell for cell in product(range(1, n + 1), repeat=d) if rng.random() < config.p
    }
    initial = len(ones)
    anchor = max(pattern.ones)
    while (found := matrix_contains(BinaryMatrix((n,) * d, frozenset(ones)), pattern)) is not None:
        cell = tuple(sel[c - 1] for sel, c in zip(found.axis_indices, anchor))
        if cell not in ones:
            raise PostconditionError(f"the engine's pattern copy uses the 0-entry {cell}")
        ones.remove(cell)
    result = BinaryMatrix((n,) * d, frozenset(ones))
    stats = TrialStats(
        trial=trial,
        seed=seed,
        p=config.p,
        initial_weight=initial,
        deletions=initial - result.weight,
        final_weight=result.weight,
        analytic_target=analytic_expected_weight(pattern, n, config.p),
    )
    return result, stats


def random_avoider_trials(config: GeneratorConfig) -> list[tuple[BinaryMatrix, TrialStats]]:
    """All trials of the generator, in trial order."""
    return [random_avoider(config, trial) for trial in range(config.trials)]
