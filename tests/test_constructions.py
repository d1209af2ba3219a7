"""Constructions and their mechanically re-checked guarantees."""

import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternex import (
    BinaryMatrix,
    CapacityError,
    GeneratorConfig,
    InputError,
    MatrixEmbedding,
    OrderedHypergraph,
    PartsSpec,
    PostconditionError,
    PermutationSpec,
    analytic_expected_weight,
    associated_hypergraph,
    associated_matrix,
    bipartite_double,
    blowup_graph,
    chain_patterns,
    corner_pad,
    count_avoiders,
    cyclic_pad,
    cyclic_pattern,
    d_permutation_matrix,
    default_density,
    ex_matrix,
    exe_hyper,
    graph_copy_from_doubling,
    hypergraph_contains,
    interval_contract,
    is_d_permutation_hypergraph,
    make_hypergraph,
    make_matrix,
    matrix_contains,
    normalize_edges,
    permutation_matrix,
    random_avoider,
    random_avoider_trials,
    satisfies_boundary_condition,
)
from patternex import constructions, containment
from patternex.verify import run_checks

from oracles import brute_matrix_contains, sweep_repair

ALL_ONES_2 = make_matrix([2, 2], [(1, 1), (1, 2), (2, 1), (2, 2)])


def _plant(monkeypatch, name, *answers):
    # constructions' ``name`` gives the answers in turn, then the last one
    # on every later call
    calls = iter(answers[:-1])
    monkeypatch.setattr(constructions, name, lambda *args: next(calls, answers[-1]))


@st.composite
def ordered_graphs(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.frozensets(st.sampled_from(pairs))) if pairs else frozenset()
    return make_hypergraph(n, edges)


class TestCornerPad:
    def test_smallest_case(self):
        assert corner_pad(permutation_matrix((1,))).ones == {(1, 2), (2, 1)}

    def test_identity(self):
        padded = corner_pad(permutation_matrix((1, 2)))
        assert padded.ones == {(1, 2), (2, 3), (3, 1)}

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(range(1, 5)))
    def test_contains_input_and_stays_permutation(self, perm):
        pattern = permutation_matrix(perm)
        padded = corner_pad(pattern)
        assert matrix_contains(padded, pattern) is not None
        assert (padded.extents[0], 1) in padded.ones
        k = padded.extents[0]
        assert sorted(c[0] for c in padded.ones) == list(range(1, k + 1))
        assert sorted(c[1] for c in padded.ones) == list(range(1, k + 1))

    def test_requires_square(self):
        with pytest.raises(InputError):
            corner_pad(make_matrix([2, 3], []))


class TestBipartiteDouble:
    def test_edgeless(self):
        assert bipartite_double(make_hypergraph(3, [])).weight == 0

    def test_single_edge(self):
        assert bipartite_double(make_hypergraph(2, [(1, 2)])).ones == {(1, 2)}

    @settings(max_examples=50, deadline=None)
    @given(ordered_graphs())
    def test_weight_equals_edge_count(self, graph):
        assert bipartite_double(graph).weight == graph.edge_count

    def test_rejects_hyperedges(self):
        with pytest.raises(InputError):
            bipartite_double(make_hypergraph(3, [(1, 2, 3)]))

    def test_a_lost_edge_raises_postcondition_error(self, monkeypatch):
        # an explicit re-check, which python -O keeps
        def lossy(extents, ones):
            return BinaryMatrix(extents, frozenset(sorted(ones)[1:]))

        monkeypatch.setattr(constructions, "BinaryMatrix", lossy)
        with pytest.raises(PostconditionError, match="lost an edge"):
            bipartite_double(make_hypergraph(3, [(1, 2), (2, 3)]))


class TestBlowup:
    def test_path_from_single_edge(self):
        blown = blowup_graph(make_hypergraph(2, [(1, 2)]), 3)
        assert blown.n == 3
        assert blown.edges == {(1, 2), (2, 3)}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.randoms(use_true_random=False))
    def test_edge_count_identity(self, n, t, rng):
        crossing = [(i, n + j) for i in range(1, n + 1) for j in range(1, n + 1)]
        chosen = rng.sample(crossing, rng.randint(0, len(crossing)))
        bipartite = make_hypergraph(2 * n, chosen)
        blown = blowup_graph(bipartite, t)
        assert blown.edge_count == (t - 1) * bipartite.edge_count
        assert blown.n == n * t

    def test_rejects_non_crossing_edges(self):
        with pytest.raises(InputError):
            blowup_graph(make_hypergraph(4, [(1, 2)]), 2)

    @pytest.mark.parametrize("edge", [(1, 3, 4), (3,)])
    def test_rejects_an_edge_that_is_not_a_pair(self, edge):
        with pytest.raises(InputError, match="2-uniform"):
            blowup_graph(make_hypergraph(4, [edge]), 2)

    def test_output_size_limit(self, monkeypatch):
        # the output holds 2 * (t - 1) * |E| vertex entries
        monkeypatch.setattr(constructions, "MAX_CONSTRUCTION_SIZE", 8)
        edge = make_hypergraph(2, [(1, 2)])
        assert blowup_graph(edge, 5).edge_count == 4
        with pytest.raises(CapacityError):
            blowup_graph(edge, 6)

    def test_a_lost_edge_fails_the_edge_count_identity(self, monkeypatch):
        # the identity holds for every input: only a constructor that drops
        # an edge can break it
        def lossy(n, edges):
            return OrderedHypergraph(n, frozenset(sorted(edges)[1:]))

        monkeypatch.setattr(constructions, "OrderedHypergraph", lossy)
        with pytest.raises(PostconditionError, match="edge count identity"):
            blowup_graph(make_hypergraph(2, [(1, 2)]), 3)

    def test_extremal_avoider_blowup_stays_avoiding(self):
        pattern = corner_pad(permutation_matrix((1, 2)))
        cert = ex_matrix(pattern, 3)
        bipartite, _ = associated_hypergraph(cert.witness)
        graph_pattern, _ = associated_hypergraph(pattern)
        assert hypergraph_contains(bipartite, graph_pattern) is None
        blown = blowup_graph(bipartite, 3)
        assert hypergraph_contains(blown, graph_pattern) is None


class TestCyclicPattern:
    def test_d2(self):
        assert cyclic_pattern(2).ones == {(1, 2), (2, 1)}

    def test_d3(self):
        assert cyclic_pattern(3).ones == {(1, 2, 3), (2, 3, 1), (3, 1, 2)}

    def test_size_limit(self, monkeypatch):
        # the output holds d * d coordinates
        monkeypatch.setattr(constructions, "MAX_CONSTRUCTION_SIZE", 9)
        assert cyclic_pattern(3).weight == 3
        with pytest.raises(CapacityError):
            cyclic_pattern(4)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_is_permutation_hypergraph_after_association(self, d):
        hypergraph, _ = associated_hypergraph(cyclic_pattern(d))
        assert is_d_permutation_hypergraph(hypergraph) == d


def test_oversized_outputs_are_refused_before_they_are_built():
    # 2 * (10^9 - 1) vertex entries and 10^10 coordinates, both past the
    # limit of 2,000,000; before the limit, under an 800 MB address-space
    # cap, each ended in MemoryError
    edge = make_hypergraph(2, [(1, 2)])
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="exceeds the limit 2000000"):
            blowup_graph(edge, 10**9)
        with pytest.raises(CapacityError, match="exceeds the limit 2000000"):
            cyclic_pattern(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestCyclicPad:
    def test_smallest_case(self):
        padded = cyclic_pad(make_hypergraph(2, [(1, 2)]))
        assert is_d_permutation_hypergraph(padded) == 2

    def test_identity_length_2(self):
        base = make_hypergraph(4, [(1, 3), (2, 4)])
        padded = cyclic_pad(base)
        assert is_d_permutation_hypergraph(padded) == 3
        assert hypergraph_contains(padded, base) is not None
        assert satisfies_boundary_condition(padded, 2)

    def test_d3_length_2(self):
        base = associated_hypergraph(
            d_permutation_matrix(PermutationSpec(2, ((2, 1), (1, 2))))
        )[0]
        padded = cyclic_pad(base)
        assert is_d_permutation_hypergraph(padded) == 4
        assert satisfies_boundary_condition(padded, 3)
        assert hypergraph_contains(padded, base) is not None

    def test_length_is_k_plus_d_minus_1(self):
        for d in (2, 3):
            for k in (1, 2, 3):
                perms = tuple(tuple(range(1, k + 1)) for _ in range(d - 1))
                base = associated_hypergraph(
                    d_permutation_matrix(PermutationSpec(k, perms))
                )[0]
                assert is_d_permutation_hypergraph(cyclic_pad(base)) == k + d - 1

    def test_rejects_non_permutation_input(self):
        with pytest.raises(InputError):
            cyclic_pad(make_hypergraph(4, [(1, 3)]))

    @pytest.mark.parametrize(
        "name,answers,message",
        [
            ("is_d_permutation_hypergraph", (2, None), "not a permutation hypergraph"),
            ("hypergraph_contains", (None,), "does not contain its input"),
            ("satisfies_boundary_condition", (False,), "misses a part boundary pair"),
        ],
    )
    def test_each_re_check_catches_a_planted_defect(self, monkeypatch, name, answers, message):
        _plant(monkeypatch, name, *answers)
        with pytest.raises(PostconditionError, match=message):
            cyclic_pad(make_hypergraph(4, [(1, 3), (2, 4)]))


class TestChainPatterns:
    def test_one_step_from_identity(self):
        chain = chain_patterns(permutation_matrix((1, 2)), 3)
        assert [m.extents[0] for m in chain] == [2, 3]
        assert matrix_contains(chain[1], chain[0]) is not None

    def test_lengths_increase_by_one(self):
        start = associated_matrix(
            cyclic_pad(make_hypergraph(4, [(1, 3), (2, 4)])), PartsSpec.equal(2, 3)
        )
        chain = chain_patterns(start, 6)
        assert [m.extents[0] for m in chain] == [3, 4, 5, 6]
        for prev, grown in zip(chain, chain[1:]):
            assert matrix_contains(grown, prev) is not None

    def test_boundary_condition_is_preserved(self):
        start = associated_matrix(
            cyclic_pad(make_hypergraph(4, [(1, 3), (2, 4)])), PartsSpec.equal(2, 3)
        )
        assert satisfies_boundary_condition(associated_hypergraph(start)[0], 2)
        for grown in chain_patterns(start, 6)[1:]:
            assert satisfies_boundary_condition(associated_hypergraph(grown)[0], 2)

    def test_rejects_non_permutation_matrix(self):
        with pytest.raises(InputError):
            chain_patterns(make_matrix([2, 2], [(1, 1)]), 3)

    @pytest.mark.parametrize(
        "name,answers,message",
        [
            ("is_d_permutation_hypergraph", (2, None), "non-permutation matrix"),
            ("matrix_contains", (None,), "does not contain its predecessor"),
            # the start is taken to anchor every boundary, its step not
            ("satisfies_boundary_condition", (True, False), "lost the part boundary"),
        ],
    )
    def test_each_re_check_catches_a_planted_defect(self, monkeypatch, name, answers, message):
        _plant(monkeypatch, name, *answers)
        with pytest.raises(PostconditionError, match=message):
            chain_patterns(permutation_matrix((1, 2)), 3)

    def test_a_length_past_the_placement_limit_is_refused_before_any_step(self):
        # the last step's re-check, (999,) in (1000,), needs the largest
        # placement table of the chain; refused only when a step reached
        # it, length 1000 ran 9.1 s and 336 MiB to step 445
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"placement table .* over the limit"):
            chain_patterns(permutation_matrix((1, 2)), 1000)
        assert time.perf_counter() - start < 1
        # lengths 445 and 444 are the first past the limit and the last under it
        with pytest.raises(CapacityError, match=r"\(444,\) in \(445,\)"):
            chain_patterns(permutation_matrix((1, 2)), 445)
        assert containment.placement_table_bits((443,), (444,)) <= containment.MAX_TABLE_BITS

    def test_permutation_test_matches_the_matrix_definition(self):
        # the hypergraph test that chain_patterns runs must accept exactly
        # the d-permutation matrices: every extent k, weight k, and the
        # coordinates on each axis a permutation of 1..k
        def length(matrix):
            k = matrix.extents[0]
            if set(matrix.extents) != {k} or matrix.weight != k:
                return None
            for axis in range(matrix.d):
                if sorted(c[axis] for c in matrix.ones) != list(range(1, k + 1)):
                    return None
            return k

        shapes = list(product(range(1, 4), repeat=2))
        shapes += list(product(range(1, 3), repeat=3))
        cases = [(shape, prod(shape)) for shape in shapes]
        cases += [(shape, 4) for shape in ((3, 3, 1), (1, 3, 3), (3, 1, 3))]
        checked = 0
        for shape, max_weight in cases:
            cells = list(product(*(range(1, n + 1) for n in shape)))
            for weight in range(max_weight + 1):
                for ones in combinations(cells, weight):
                    matrix = make_matrix(list(shape), ones)
                    hypergraph = associated_hypergraph(matrix)[0]
                    assert is_d_permutation_hypergraph(hypergraph) == length(matrix), matrix
                    checked += 1
        assert checked == 682 + 318 + 3 * 256
        with pytest.raises(InputError):
            chain_patterns(make_matrix([2, 3], [(1, 1), (2, 2)]), 3)


class TestNormalizeEdges:
    def test_uniform_input_is_a_fixed_point(self):
        g = make_hypergraph(4, [(1, 2), (3, 4)])
        trimmed, truncated, report = normalize_edges(g, 2, 2)
        assert trimmed == g
        assert truncated == g
        assert report.truncated == 0
        assert report.max_multiplicity == 1

    def test_small_edges_dropped(self):
        g = make_hypergraph(4, [(1,), (1, 2)])
        trimmed, _, report = normalize_edges(g, 2, 2)
        assert trimmed.edges == {(1, 2)}
        assert report.removed_small == 1

    def test_truncation_to_smallest_vertices(self):
        g = make_hypergraph(6, [(1, 2, 3, 4, 5, 6)])
        _, truncated, report = normalize_edges(g, 2, 2)
        assert truncated.edges == {(1, 2, 3, 4)}
        assert report.truncated == 1
        assert report.cap == 4

    def test_alternative_cap(self):
        g = make_hypergraph(9, [(1, 2, 3, 4, 5, 6, 7, 8, 9)])
        _, truncated, report = normalize_edges(g, 2, 2, cap_mode="(k+d)d")
        assert report.cap == 8
        assert truncated.edges == {(1, 2, 3, 4, 5, 6, 7, 8)}

    def test_multiplicities_are_measured(self):
        g = make_hypergraph(6, [(1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2)])
        _, truncated, report = normalize_edges(g, 2, 2)
        assert truncated.edges == {(1, 2, 3, 4), (1, 2)}
        assert dict(report.multiplicities)[(1, 2, 3, 4)] == 2
        assert report.max_multiplicity == 2


class TestRandomAvoider:
    def test_output_always_avoids(self):
        config = GeneratorConfig(
            pattern=ALL_ONES_2, side=6, p=0.5, seed=11, trials=8
        )
        for matrix, stats in random_avoider_trials(config):
            assert not brute_matrix_contains(matrix, ALL_ONES_2)
            assert stats.final_weight == matrix.weight
            assert stats.initial_weight - stats.deletions == stats.final_weight

    @pytest.mark.parametrize(
        "pattern,side",
        [
            (ALL_ONES_2, 6),
            (permutation_matrix((2, 3, 1)), 7),
            (make_matrix([2, 3], [(1, 1), (1, 2), (2, 3)]), 6),
            (make_matrix([2, 2, 2], [(1, 1, 1), (2, 2, 2)]), 4),
            (make_matrix([2, 2, 2], [(1, 2, 1), (2, 1, 2), (1, 1, 1)]), 4),
        ],
        ids=["all_ones_2", "perm231", "2x3", "identity_3d", "3d_three_ones"],
    )
    def test_matches_one_pass_window_sweep(self, pattern, side):
        for seed, p in ((1, 0.3), (2, 0.5), (3, 0.8)):
            config = GeneratorConfig(pattern=pattern, side=side, p=p, seed=seed, trials=3)
            for trial in range(3):
                matrix, stats = random_avoider(config, trial)
                rng = random.Random(seed * 2**32 + trial)
                ones = {
                    cell
                    for cell in product(range(1, side + 1), repeat=pattern.d)
                    if rng.random() < p
                }
                assert stats.deletions == sweep_repair(ones, pattern, side)
                assert matrix.ones == ones

    def test_engine_copy_through_a_zero_entry_raises(self, monkeypatch):
        # a faulty engine that keeps reporting the same copy must not hang
        # the repair loop: its second report names a cleared cell
        monkeypatch.setattr(
            constructions, "matrix_contains", lambda *args: MatrixEmbedding(((1, 2), (1, 2)))
        )
        config = GeneratorConfig(pattern=ALL_ONES_2, side=4, p=0.5, seed=0)
        with pytest.raises(PostconditionError):
            random_avoider(config)

    def test_window_limit(self):
        # C(53, 2)^2 = 1,898,884 windows fit under the limit of 2,000,000
        # and C(54, 2)^2 = 2,047,761 do not; the density leaves no 1-entry
        config = GeneratorConfig(pattern=ALL_ONES_2, side=53, p=1e-9, seed=0)
        assert random_avoider(config)[0].weight == 0
        with pytest.raises(CapacityError, match="^at least 2047761 submatrix windows exceed"):
            GeneratorConfig(pattern=ALL_ONES_2, side=54, p=1e-9, seed=0)

    def test_a_huge_window_count_is_refused_at_once(self):
        # C(400000, 1) * C(400000, 200000) windows: math.comb took 2.4 s on
        # them, and printing the 4,300-digit count raised ValueError
        pattern = make_matrix([1, 200_000], [(1, 1), (1, 200_000)])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="^at least [0-9]+ submatrix windows exceed"):
                GeneratorConfig(pattern=pattern, side=400_000, p=0.5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("p", [0.5, 1e-9])
    def test_a_placement_table_past_the_limit_is_refused_before_sampling(self, p):
        # one window, but the first engine call needs the placement table
        # of tail shape 2^19 in 2^19, 2^38 entries; sampling the 2^20
        # cells first took 2.35 s and 170 MiB, and a sparse sample that
        # never reached the engine was accepted
        d = 20
        pattern = make_matrix([2] * d, [(1,) * d, (2,) * d])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="placement table"):
                GeneratorConfig(pattern=pattern, side=2, p=p, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "extents,side",
        [((3,) + (2,) * 21, 2), ((2, 1416), 1415)],
        ids=["22-axes-2^22-cells", "2-axes-1415^2-cells"],
    )
    def test_sampled_cells_past_the_limit_are_refused_before_sampling(self, extents, side):
        # the pattern fits no window, so no other limit applies; sampling
        # the 2^22 cells first took 0.92 s, doubling with each axis
        pattern = make_matrix(extents, [(1,) * len(extents), extents])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="^at least [0-9]+ sampled cells exceed"):
                GeneratorConfig(pattern=pattern, side=side, p=1e-9, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_target_of_a_wide_pattern_is_exact(self):
        # the target is n^2 p - 1 * p^2 with one window; as a float,
        # (e * 100)^200 overflowed, and at side 1000 the term was infinite
        pattern = make_matrix([100, 100], [(1, 1), (100, 100)])
        matrix, stats = random_avoider(GeneratorConfig(pattern=pattern, side=100, p=0.5, seed=0))
        assert stats.final_weight == matrix.weight
        assert analytic_expected_weight(pattern, 100, 0.5) == Fraction(19999, 4)
        wide = make_matrix([1000, 1000], [(1, 1), (1000, 1000)])
        assert analytic_expected_weight(wide, 1000, Fraction(1, 2)) == Fraction(1999999, 4)

    @pytest.mark.parametrize(
        "pattern,side,p,sign",
        [
            # as floats, n^d p and the second term were e^920 and e^1842
            (permutation_matrix((1, 2)), 10**200, 0.5, -1),
            # a side past the float range
            (ALL_ONES_2, 10**400, 0.5, -1),
            # e^806 and e^462
            (ALL_ONES_2, 10**300, 1e-250, 1),
            # e^576 and e^462
            (ALL_ONES_2, 10**200, 1e-150, 1),
        ],
        ids=["second_larger", "side_past_the_range", "first_larger", "both_fit"],
    )
    def test_a_target_past_the_float_range_is_exact(self, pattern, side, p, sign):
        # a float p counts as the exact value of that float
        p = Fraction(p)
        windows = prod(math.comb(side, k) for k in pattern.extents)
        target = side**pattern.d * p - windows * p**pattern.weight
        assert analytic_expected_weight(pattern, side, p) == target
        assert (target > 0) - (target < 0) == sign

    @pytest.mark.parametrize(
        "pattern,side,p,message",
        [
            # math.log(0) raised ValueError here: the term overflows a float
            (
                make_matrix([1000, 1000], [(1, 1), (1000, 1000)]),
                1000,
                0,
                r"density must lie in \(0, 1\], got 0",
            ),
            # the float expression returned 0.0 here
            (permutation_matrix((1, 2)), 5, 0, r"density must lie in \(0, 1\], got 0"),
            (permutation_matrix((1, 2)), 5, 1.5, r"density must lie in \(0, 1\], got 1.5"),
            (permutation_matrix((1, 2)), 0, 0.5, "side must be positive, got 0"),
        ],
        ids=["p0_term_overflows", "p0_term_fits", "p_above_1", "side_0"],
    )
    def test_a_side_or_density_outside_the_domain_is_refused(self, pattern, side, p, message):
        with pytest.raises(InputError, match=message):
            analytic_expected_weight(pattern, side, p)

    @pytest.mark.parametrize(
        "side,p", [(8, Fraction(1, 8)), (6, Fraction(3, 10)), (53, Fraction(1, 10**9))]
    )
    def test_the_target_counts_the_windows_and_beats_the_papers_form(self, side, p):
        target = analytic_expected_weight(ALL_ONES_2, side, p)
        assert target == side**2 * p - math.comb(side, 2) ** 2 * p**4
        # the paper's form bounds the C(n, 2)^2 windows by (e n / 2)^4
        assert math.comb(side, 2) ** 2 < (math.e * side / 2) ** 4
        if side == 8:
            assert target == Fraction(1999, 256)

    def test_reproducible_per_seed(self):
        config = GeneratorConfig(pattern=ALL_ONES_2, side=8, p=0.25, seed=3, trials=2)
        first = random_avoider(config, 1)
        second = random_avoider(config, 1)
        assert first == second

    def test_trial_seed_is_the_seed_shifted_past_the_trial_index(self):
        config = GeneratorConfig(pattern=ALL_ONES_2, side=6, p=0.3, seed=12, trials=4)
        _, stats = random_avoider(config, 3)
        assert stats.seed == 12 * 2**32 + 3
        # seed 0 keeps trial seeds 0, 1, 2, ...; with the old seed XOR
        # trial index, seeds 0 and 1 shared every sample
        zero = GeneratorConfig(pattern=ALL_ONES_2, side=6, p=0.3, seed=0, trials=2)
        one = GeneratorConfig(pattern=ALL_ONES_2, side=6, p=0.3, seed=1, trials=2)
        seeds = [stats.seed for c in (zero, one) for _, stats in random_avoider_trials(c)]
        assert seeds == [0, 1, 2**32, 2**32 + 1]

    @pytest.mark.parametrize(
        "p", [Fraction(1, 8), Fraction(1, 3), Fraction(3, 10), Fraction(1, 10**20), 0.3, 1]
    )
    def test_the_grid_threshold_samples_as_the_exact_comparison(self, p):
        # random() < p with p a Fraction compares exactly, but about 30
        # times slower than with a float
        side = 7
        config = GeneratorConfig(pattern=ALL_ONES_2, side=side, p=p, seed=5, trials=20)
        for trial, (_, stats) in enumerate(random_avoider_trials(config)):
            rng = random.Random(5 * 2**32 + trial)
            exact = sum(rng.random() < Fraction(p) for _ in range(side * side))
            assert stats.initial_weight == exact

    def test_default_density_formula(self):
        # (1/2) * 8^(-(2+2-2)/(4-1)) = (1/2) * 8^(-2/3) = 1/8
        assert default_density(ALL_ONES_2, 8) == Fraction(1, 8)

    @pytest.mark.parametrize("side", [1, 2, 7, 53, 10**6, 10**300, 2**1023])
    def test_default_density_is_the_exact_value_of_the_float_power(self, side):
        # seed-0 samples and stats.txt depend on this float
        assert default_density(ALL_ONES_2, side) == Fraction(0.5 * side ** (-2 / 3))

    def test_default_density_refuses_a_side_past_the_float_range(self):
        # the power converted the side to a float and raised OverflowError,
        # which generate random-avoider showed as a traceback
        with pytest.raises(CapacityError, match="^a side of 1329 bits is past the float range"):
            default_density(ALL_ONES_2, 10**400)
        # 0.0 ** -x raised ZeroDivisionError and a negative side gave a
        # complex power
        for side in (0, -3):
            with pytest.raises(InputError, match=f"^side must be positive, got {side}$"):
                default_density(ALL_ONES_2, side)

    def test_default_density_refuses_a_power_below_the_float_range(self):
        # 0.5 * 100^-198 rounds to 0.0, and the config then refused a
        # density of 0 that its caller never gave
        corners = make_matrix([100, 100], [(1, 1), (100, 100)])
        with pytest.raises(
            CapacityError,
            match=r"^the default density at side 100 is below the float range; --p sets",
        ):
            default_density(corners, 100)
        # the least positive float, 2^-1074, is a density
        assert default_density(make_matrix([2, 1073], [(1, 1), (2, 1073)]), 2) == Fraction(
            1, 2**1074
        )

    def test_a_trial_only_samples_and_repairs(self, monkeypatch):
        # every limit is checked when the config is built, and the run's
        # target is its caller's: no trial counts or computes either
        def refuse(*args):
            raise AssertionError("a trial repeated a check of its run")

        config = GeneratorConfig(pattern=ALL_ONES_2, side=8, p=Fraction(1, 8), seed=0, trials=3)
        for name in ("analytic_expected_weight", "binomial_product", "placement_table_bits"):
            monkeypatch.setattr(constructions, name, refuse)
        assert [stats.trial for _, stats in random_avoider_trials(config)] == [0, 1, 2]
        for trial in (-1, 3):
            with pytest.raises(InputError, match=f"^trial {trial} outside 0..2$"):
                random_avoider(config, trial)

    def test_a_target_past_the_bit_limit_is_refused(self):
        # the weight times the bits of p's denominator: 4 * 137,500 is the
        # limit, and one more bit of the denominator passes it
        limit = constructions.MAX_TARGET_BITS
        assert limit == 4 * 137_500
        at_limit = Fraction(1, 2**137_499)
        assert analytic_expected_weight(ALL_ONES_2, 8, at_limit) > 0
        GeneratorConfig(pattern=ALL_ONES_2, side=8, p=at_limit, seed=0)
        message = f"^an analytic target of about 550004 bits exceeds the limit {limit}$"
        with pytest.raises(CapacityError, match=message):
            analytic_expected_weight(ALL_ONES_2, 8, at_limit / 2)
        with pytest.raises(CapacityError, match=message):
            GeneratorConfig(pattern=ALL_ONES_2, side=8, p=at_limit / 2, seed=0)

    def test_the_target_of_a_heavy_pattern_is_refused_at_once(self):
        # the 150x150 all-ones pattern at side 150 and its default density,
        # with a 50-bit denominator: its 1.1-Mbit target took 4.1 s to
        # compute and print into a 664 KB stats.txt
        heavy = make_matrix([150, 150], list(product(range(1, 151), repeat=2)))
        p = default_density(heavy, 150)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="^an analytic target of about 1125000 bits"):
            GeneratorConfig(pattern=heavy, side=150, p=p, seed=0)
        with pytest.raises(CapacityError, match="^an analytic target of about 1125000 bits"):
            analytic_expected_weight(heavy, 150, p)
        assert time.perf_counter() - start < 0.5

    def test_weight_one_pattern_rejected(self):
        with pytest.raises(InputError):
            GeneratorConfig(
                pattern=make_matrix([1, 1], [(1, 1)]), side=4, p=0.5, seed=0
            )

    def test_mean_final_weight_tracks_analytic_target(self):
        side = 8
        p = default_density(ALL_ONES_2, side)
        config = GeneratorConfig(pattern=ALL_ONES_2, side=side, p=p, seed=5, trials=30)
        total = sum(stats.final_weight for _, stats in random_avoider_trials(config))
        target = analytic_expected_weight(ALL_ONES_2, side, p)
        assert Fraction(total, 30) >= Fraction(4, 5) * target


class TestIntervalContract:
    def test_t1_is_identity(self):
        g = make_hypergraph(4, [(1, 3), (2,)])
        assert interval_contract(g, 1) == g

    def test_adjacent_intervals(self):
        g = make_hypergraph(4, [(1, 3)])
        assert interval_contract(g, 2).edges == {(1, 2)}

    def test_deduplication(self):
        g = make_hypergraph(4, [(1, 3), (2, 4), (1, 4)])
        assert interval_contract(g, 2).edges == {(1, 2)}

    def test_divisibility_required(self):
        with pytest.raises(InputError):
            interval_contract(make_hypergraph(5, []), 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.randoms(use_true_random=False))
    def test_avoidance_preserved_for_permutation_patterns(self, t, rng):
        # scope matters: every pattern vertex lies in exactly one edge here
        pattern = make_hypergraph(4, [(1, 3), (2, 4)])
        n = 4 * t
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        host = make_hypergraph(n, rng.sample(pairs, rng.randint(0, min(len(pairs), 6))))
        if hypergraph_contains(host, pattern) is None:
            contracted = interval_contract(host, t)
            assert hypergraph_contains(contracted, pattern) is None

    def test_general_patterns_are_out_of_scope(self):
        # with nested pattern edges the contraction can create a copy
        pattern = make_hypergraph(2, [(1,), (1, 2)])
        host = make_hypergraph(4, [(1,), (2, 3)])
        assert hypergraph_contains(host, pattern) is None
        contracted = interval_contract(host, 2)
        assert hypergraph_contains(contracted, pattern) is not None


class TestDoublingRederivation:
    # the corner-padded 2x2 identity: (1,2), (2,3), (3,1); a copy in a
    # doubled graph needs rows r1 < r2 < r3 before columns c1 < c2 < c3,
    # so 6 vertices
    PATTERN = corner_pad(permutation_matrix((1, 2)))

    def _pull_back(self, graph):
        embedding = matrix_contains(bipartite_double(graph), self.PATTERN)
        if embedding is None:
            return None
        rebuilt = graph_copy_from_doubling(graph, self.PATTERN, embedding)
        graph_pattern, _ = associated_hypergraph(self.PATTERN)
        assert hypergraph_contains(graph, graph_pattern) is not None
        assert rebuilt.vertex_map == embedding.axis_indices[0] + embedding.axis_indices[1]
        return rebuilt

    @settings(max_examples=60, deadline=None)
    @given(ordered_graphs(max_n=6))
    def test_pattern_copy_pulls_back_to_the_graph(self, graph):
        self._pull_back(graph)

    def test_smallest_copy(self):
        graph = make_hypergraph(6, [(1, 5), (2, 6), (3, 4)])
        embedding = matrix_contains(bipartite_double(graph), self.PATTERN)
        assert embedding.axis_indices == ((1, 2, 3), (4, 5, 6))
        rebuilt = self._pull_back(graph)
        assert rebuilt.vertex_map == (1, 2, 3, 4, 5, 6)
        assert rebuilt.edge_map == (((1, 5), (1, 5)), ((2, 6), (2, 6)), ((3, 4), (3, 4)))

    @settings(max_examples=30, deadline=None)
    @given(ordered_graphs(max_n=6))
    def test_planted_copy_always_pulls_back(self, graph):
        host = make_hypergraph(6, graph.edges | {(1, 5), (2, 6), (3, 4)})
        assert self._pull_back(host) is not None

    def test_requires_corner_anchor(self):
        no_anchor = permutation_matrix((1, 2))
        graph = make_hypergraph(4, [(1, 3), (2, 4)])
        embedding = matrix_contains(bipartite_double(graph), no_anchor)
        assert embedding is not None
        with pytest.raises(InputError):
            graph_copy_from_doubling(graph, no_anchor, embedding)

    def test_rows_that_do_not_precede_the_columns_are_refused(self):
        graph = make_hypergraph(6, [(1, 5), (2, 6), (3, 4)])
        embedding = MatrixEmbedding(((1, 2, 4), (3, 5, 6)))
        with pytest.raises(PostconditionError, match="rows do not precede"):
            graph_copy_from_doubling(graph, self.PATTERN, embedding)

    def test_an_edge_missing_from_the_graph_is_refused(self):
        graph = make_hypergraph(6, [(1, 5), (2, 6)])
        embedding = MatrixEmbedding(((1, 2, 3), (4, 5, 6)))
        with pytest.raises(PostconditionError, match=r"rebuilt edge \(3, 4\) is missing"):
            graph_copy_from_doubling(graph, self.PATTERN, embedding)

    def test_a_rebuilt_embedding_that_fails_verification_raises(self, monkeypatch):
        graph = make_hypergraph(6, [(1, 5), (2, 6), (3, 4)])
        embedding = matrix_contains(bipartite_double(graph), self.PATTERN)
        _plant(monkeypatch, "verify_hypergraph_embedding", False)
        with pytest.raises(PostconditionError, match="failed verification"):
            graph_copy_from_doubling(graph, self.PATTERN, embedding)


class TestBoundaryCondition:
    @pytest.mark.parametrize(
        "graph,anchored",
        [
            (make_hypergraph(4, [(1, 3), (2, 4)]), False),
            (cyclic_pad(make_hypergraph(4, [(1, 3), (2, 4)])), True),
        ],
    )
    def test_d_is_inferred_from_a_uniform_input(self, graph, anchored):
        assert satisfies_boundary_condition(graph) is anchored
        assert satisfies_boundary_condition(graph, 2) is anchored

    def test_d_is_not_inferred_from_a_non_uniform_input(self):
        with pytest.raises(InputError, match="cannot infer d from a non-uniform hypergraph"):
            satisfies_boundary_condition(make_hypergraph(3, [(1,), (2, 3)]))


DOUBLING_PATTERN = TestDoublingRederivation.PATTERN


@pytest.mark.parametrize(
    "refused,message",
    [
        (lambda: corner_pad(make_matrix([1, 1, 1], [(1, 1, 1)])), "needs a 2-dimensional"),
        (lambda: bipartite_double(make_hypergraph(0, [])), "needs at least one vertex"),
        (lambda: blowup_graph(make_hypergraph(3, []), 2), r"live on \[2n\], got 3 vertices"),
        (lambda: blowup_graph(make_hypergraph(0, []), 2), r"live on \[2n\], got 0 vertices"),
        (lambda: cyclic_pattern(1), "dimension must be >= 2, got 1"),
        (
            lambda: satisfies_boundary_condition(make_hypergraph(3, [(1, 3)]), 2),
            "3 vertices do not split into d=2 equal parts",
        ),
        (
            lambda: satisfies_boundary_condition(make_hypergraph(2, [(1,)])),
            "2 vertices do not split into d=1 equal parts",
        ),
        (lambda: normalize_edges(make_hypergraph(2, []), 0, 2), "need k >= 1 and d >= 2"),
        (lambda: normalize_edges(make_hypergraph(2, []), 1, 1), "need k >= 1 and d >= 2"),
        (lambda: normalize_edges(make_hypergraph(2, []), 1, 2, "k"), "cap mode must be one of"),
        (lambda: interval_contract(make_hypergraph(2, []), 0), "interval length must be >= 1"),
        (
            lambda: graph_copy_from_doubling(
                make_hypergraph(2, []),
                make_matrix([1, 1, 1], [(1, 1, 1)]),
                MatrixEmbedding(((1,), (2,), (3,))),
            ),
            "a 2-dimensional pattern is required",
        ),
        (
            lambda: graph_copy_from_doubling(
                make_hypergraph(6, []), DOUBLING_PATTERN, MatrixEmbedding(((1, 2), (4, 5, 6)))
            ),
            "embedding shape does not match the pattern",
        ),
        (
            lambda: default_density(make_matrix([2, 2], [(1, 1)]), 4),
            "pattern weight must be >= 2, got 1",
        ),
        (
            lambda: random_avoider(GeneratorConfig(pattern=ALL_ONES_2, side=4, p=0.5, seed=0), 1),
            r"trial 1 outside 0\.\.0",
        ),
    ],
)
def test_each_input_refusal_names_its_fault(refused, message):
    with pytest.raises(InputError, match=message):
        refused()


HUGE = 10**5000  # more than the 4,300 digits that str writes by default


@pytest.mark.parametrize(
    "refused",
    [
        lambda: exe_hyper(make_hypergraph(2, [(1, 2)]), HUGE),
        lambda: count_avoiders(make_hypergraph(2, [(1, 2)]), HUGE, edge_size_cap=1),
        lambda: count_avoiders(make_hypergraph(2, [(1, 2)]), HUGE),
        lambda: ex_matrix(permutation_matrix((1, 2)), HUGE),
        lambda: GeneratorConfig(pattern=ALL_ONES_2, side=HUGE, p=Fraction(1, 2), seed=0),
        lambda: blowup_graph(make_hypergraph(2, [(1, 2)]), HUGE),
        lambda: cyclic_pattern(HUGE),
        lambda: chain_patterns(permutation_matrix((1, 2)), HUGE),
    ],
    ids=[
        "exe_hyper",
        "count_avoiders_capped",
        "count_avoiders",
        "ex_matrix",
        "GeneratorConfig",
        "blowup_graph",
        "cyclic_pattern",
        "chain_patterns",
    ],
)
def test_a_refusal_of_a_huge_argument_is_a_capacity_error(refused):
    # each message printed the side, a count past the limit or both, and
    # str raised ValueError on them
    with pytest.raises(CapacityError) as refusal:
        refused()
    assert len(str(refusal.value)) < 300


_EDGE = make_hypergraph(2, [(1, 2)])


@pytest.mark.parametrize(
    "refused",
    [
        lambda: GeneratorConfig(pattern=ALL_ONES_2, side=-HUGE, p=Fraction(1, 2), seed=0),
        lambda: GeneratorConfig(pattern=ALL_ONES_2, side=4, p=Fraction(1, 2), seed=0, trials=-HUGE),
        lambda: analytic_expected_weight(ALL_ONES_2, -HUGE, Fraction(1, 2)),
        lambda: default_density(ALL_ONES_2, -HUGE),
        lambda: ex_matrix(permutation_matrix((1, 2)), -HUGE),
        lambda: exe_hyper(_EDGE, -HUGE),
        lambda: count_avoiders(_EDGE, -HUGE),
        lambda: exe_hyper(_EDGE, 3, edge_cap=-HUGE),
        lambda: blowup_graph(_EDGE, -HUGE),
        lambda: interval_contract(_EDGE, -HUGE),
        lambda: cyclic_pattern(-HUGE),
        lambda: normalize_edges(_EDGE, -HUGE, 2),
        lambda: run_checks(budget=-HUGE),
        lambda: random_avoider(
            GeneratorConfig(pattern=ALL_ONES_2, side=4, p=Fraction(1, 2), seed=0), -HUGE
        ),
    ],
    ids=[
        "GeneratorConfig_side",
        "GeneratorConfig_trials",
        "analytic_expected_weight",
        "default_density",
        "ex_matrix",
        "exe_hyper",
        "count_avoiders",
        "exe_hyper_edge_cap",
        "blowup_graph",
        "interval_contract",
        "cyclic_pattern",
        "normalize_edges",
        "run_checks",
        "random_avoider",
    ],
)
def test_a_refusal_of_a_huge_negative_argument_writes_it_short(refused):
    # each message printed the argument, and str raised ValueError on it
    with pytest.raises(InputError, match="~-10\\^5000") as refusal:
        refused()
    assert len(str(refusal.value)) < 100
