"""Explicit constructions used by the verification pipeline.

Every constructor re-checks its claimed properties (containment,
avoidance, counts, boundary conditions) through the containment module
on the object it just built, raising PostconditionError instead of
returning an unverified object.  Randomized constructions are
reproducible: the generator algorithm is named in the emitted
statistics, and trial t of seed s draws from the seed s * 2^32 + t, so
no two (seed, trial) pairs share a sample.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product

from .containment import (
    HypergraphEmbedding,
    MatrixEmbedding,
    hypergraph_contains,
    matrix_contains,
    placement_table_bits,
    verify_hypergraph_embedding,
)
from .errors import CapacityError, InputError, PostconditionError, int_text
from .structures import (
    BinaryMatrix,
    Coord,
    OrderedHypergraph,
    PartsSpec,
    _Record,
    associated_hypergraph,
    associated_matrix,
    binomial_product,
    is_d_permutation_hypergraph,
)

RNG_ALGORITHM = "python-random-mt19937"

CAP_MODES = ("kd", "(k+d)d")

# the most submatrix windows the deletion repair sweeps and the most
# cells it samples, and the most vertex entries or coordinates a blow-up
# or a cyclic pattern may hold
MAX_CONSTRUCTION_SIZE = 2_000_000

# the most bits of the deletion repair's analytic target, counted as the
# pattern's weight times the bits of p's denominator: str writes the
# largest accepted target of a 53-bit p in about 1 s on a shared 2-core
# Xeon, and the time grows as the square of the bits
MAX_TARGET_BITS = 550_000


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
    if out.weight != graph.edge_count:
        raise PostconditionError("bipartite_double output lost an edge")
    return out


def blowup_graph(bipartite: OrderedHypergraph, t: int) -> OrderedHypergraph:
    """Replicate a bipartite graph across t consecutive vertex intervals.

    The input lives on [2n] with parts [n] and [n+1..2n] and every edge
    crossing; the output lives on [nt] and copies each crossing edge
    between every pair of consecutive length-n intervals, giving exactly
    (t-1) * |E| edges.
    """
    if t < 2:
        raise InputError(f"interval count t must be >= 2, got {int_text(t)}")
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
            f"a blow-up of {int_text(entries)} vertex entries exceeds the limit "
            f"{MAX_CONSTRUCTION_SIZE}"
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
        raise InputError(f"dimension must be >= 2, got {int_text(d)}")
    if d * d > MAX_CONSTRUCTION_SIZE:
        raise CapacityError(
            f"a cyclic pattern of {int_text(d * d)} coordinates exceeds the limit "
            f"{MAX_CONSTRUCTION_SIZE}"
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


class NormalizeReport(_Record):
    """Bookkeeping for the edge-normalization step."""

    __slots__ = ("cap_mode", "cap", "removed_small", "truncated", "multiplicities")

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
        raise InputError(f"need k >= 1 and d >= 2, got k={int_text(k)}, d={int_text(d)}")
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
        raise InputError(f"interval length must be >= 1, got {int_text(t)}")
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


class GeneratorConfig(_Record):
    """Parameters of the seeded random deletion-repair generator.

    Every refusal of a run comes from here, when the config is built, so
    every config runs.  Raises :class:`CapacityError`, before any power
    or sample, when the analytic target passes ``MAX_TARGET_BITS``, when
    the submatrix windows, counted by
    :func:`~patternex.structures.binomial_product`, pass
    ``MAX_CONSTRUCTION_SIZE``, when the pattern fits and the placement
    table the first :func:`matrix_contains` call of a trial fetches
    passes ``MAX_TABLE_BITS`` (:func:`placement_table_bits`), or when the
    n^d sampled cells, counted the same way, pass
    ``MAX_CONSTRUCTION_SIZE``.
    """

    __slots__ = ("pattern", "side", "p", "seed", "trials")
    _defaults = {"trials": 1}

    def _check(self) -> None:
        pattern, n = self.pattern, self.side
        _check_density(pattern, n, self.p)
        if not 0 <= self.seed < 2**64:
            raise InputError("seed must be an unsigned 64-bit integer")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {int_text(self.trials)}")
        if self.trials >= 2**32:
            raise InputError(f"trials must be below 2^32, got {int_text(self.trials)}")
        if pattern.weight <= 1:
            raise InputError(f"pattern weight must be >= 2, got {pattern.weight}")
        windows = binomial_product([(n, k) for k in pattern.extents], MAX_CONSTRUCTION_SIZE)
        if windows > MAX_CONSTRUCTION_SIZE:
            raise CapacityError(
                f"at least {windows} submatrix windows exceed the limit {MAX_CONSTRUCTION_SIZE}"
            )
        if windows:
            placement_table_bits(pattern.extents[1:], (n,) * (pattern.d - 1))
        cells = binomial_product([(n, 1)] * pattern.d, MAX_CONSTRUCTION_SIZE)
        if cells > MAX_CONSTRUCTION_SIZE:
            raise CapacityError(
                f"at least {cells} sampled cells exceed the limit {MAX_CONSTRUCTION_SIZE}"
            )


def _check_density(pattern: BinaryMatrix, side: int, p) -> None:
    """Refuse a side below 1 or a density outside (0, 1] with
    :class:`InputError`, and an analytic target of more than
    ``MAX_TARGET_BITS`` with :class:`CapacityError`."""
    if side < 1:
        raise InputError(f"side must be positive, got {int_text(side)}")
    if not 0 < p <= 1:
        raise InputError(f"density must lie in (0, 1], got {p}")
    # W p^w has a denominator of about w times the bits of p's
    bits = pattern.weight * Fraction(p).denominator.bit_length()
    if bits > MAX_TARGET_BITS:
        raise CapacityError(
            f"an analytic target of about {bits} bits exceeds the limit {MAX_TARGET_BITS}"
        )


class TrialStats(_Record):
    """One deletion-repair trial's row of ``stats.csv``."""

    __slots__ = ("trial", "seed", "initial_weight", "deletions", "final_weight")


def default_density(pattern: BinaryMatrix, side: int) -> Fraction:
    """The density (1/2) * n^(-(sum k_i - d) / (w - 1)) used by the generator.

    The power is taken in floats, and the result is the exact value of
    that float, the package's one rounded density: a run at the default
    density draws the cells that comparing each draw with the float
    draws.  It is 1/8 exactly for the 2x2 all-ones pattern at side 8.

    Raises :class:`InputError` for a side below 1 and
    :class:`CapacityError` for a side past the float range, about
    1.8 * 10^308, whose power cannot be taken, or for a density below the
    float range, whose power rounds to 0; :class:`GeneratorConfig`
    refuses every side past ``MAX_CONSTRUCTION_SIZE`` anyway.
    """
    if side < 1:
        raise InputError(f"side must be positive, got {int_text(side)}")
    if pattern.weight <= 1:
        raise InputError(f"pattern weight must be >= 2, got {pattern.weight}")
    exponent = (sum(pattern.extents) - pattern.d) / (pattern.weight - 1)
    try:
        density = Fraction(0.5 * side ** (-exponent))
    except OverflowError:
        raise CapacityError(
            f"a side of {side.bit_length()} bits is past the float range of the default density"
        ) from None
    if not density:
        raise CapacityError(
            f"the default density at side {side} is below the float range; --p sets the density"
        )
    return density


def analytic_expected_weight(pattern: BinaryMatrix, side: int, p) -> Fraction:
    """n^d p - W p^w, the repair's lower bound on the expected final weight,
    as an exact rational for any real p, taken as ``Fraction(p)``.

    W = prod C(n, k_i) is the number of submatrix windows, counted by
    :func:`~patternex.structures.binomial_product`, and W p^w is the
    expected number of the sample's copies.  Every repair step deletes a
    1-entry of a copy that the sample still holds, and no deletion
    creates a copy, so the deletions are at most the sample's copies.
    The paper's form bounds C(n, k) by (e n / k)^k and is smaller.

    Raises :class:`InputError` for a side below 1 or a density outside
    (0, 1], and :class:`CapacityError` for a target past
    ``MAX_TARGET_BITS``, as :class:`GeneratorConfig` does, before any
    arithmetic.
    """
    _check_density(pattern, side, p)
    p = Fraction(p)
    # C(n, k) <= n^k, so no partial product passes this cap: the count is exact
    windows = binomial_product([(side, k) for k in pattern.extents], side ** sum(pattern.extents))
    return side**pattern.d * p - windows * p**pattern.weight


def random_avoider(config: GeneratorConfig, trial: int = 0) -> tuple[BinaryMatrix, TrialStats]:
    """Sample a random d-matrix and repair it into a guaranteed avoider.

    Entries are 1 independently with probability p (seeded: trial t of
    seed s draws from the seed s * 2^32 + t).  While
    :func:`matrix_contains` finds a copy, the image of the pattern's
    greatest 1-entry in the least copy is cleared: the deletions of one
    lexicographic sweep over the submatrix windows, as a passed window
    never holds a copy again.  One call costs at most a greedy row scan
    for each of the windows / C(n, k_1) placements of axes 2..d, and a
    call that finds a copy stops at it.

    The config refused every run past a limit when it was built, so the
    one refusal left is :class:`InputError` for a trial outside
    0..trials - 1.
    """
    if not 0 <= trial < config.trials:
        raise InputError(f"trial {int_text(trial)} outside 0..{config.trials - 1}")
    pattern = config.pattern
    n = config.side
    d = pattern.d
    seed = config.seed << 32 | trial
    rng = random.Random(seed)
    # random() draws k / 2^53 for an int k, so it is below p exactly when
    # it is below p rounded up to that grid, a float
    threshold = -(-Fraction(config.p) * 2**53 // 1) / 2**53
    ones = {cell for cell in product(range(1, n + 1), repeat=d) if rng.random() < threshold}
    initial = len(ones)
    anchor = max(pattern.ones)
    while (found := matrix_contains(BinaryMatrix((n,) * d, frozenset(ones)), pattern)) is not None:
        cell = tuple(sel[c - 1] for sel, c in zip(found.axis_indices, anchor))
        if cell not in ones:
            raise PostconditionError(f"the engine's pattern copy uses the 0-entry {cell}")
        ones.remove(cell)
    return BinaryMatrix((n,) * d, frozenset(ones)), TrialStats(
        trial, seed, initial, initial - len(ones), len(ones)
    )


def random_avoider_trials(config: GeneratorConfig) -> list[tuple[BinaryMatrix, TrialStats]]:
    """All trials of the generator, in trial order."""
    return [random_avoider(config, trial) for trial in range(config.trials)]
