"""Constructions and their mechanically re-checked guarantees."""

import random
import time
import tracemalloc
from dataclasses import replace
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternex import (
    CapacityError,
    GeneratorConfig,
    InputError,
    MatrixEmbedding,
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
    cyclic_pad,
    cyclic_pattern,
    d_permutation_matrix,
    default_density,
    ex_matrix,
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

from oracles import brute_matrix_contains, sweep_repair

ALL_ONES_2 = make_matrix([2, 2], [(1, 1), (1, 2), (2, 1), (2, 2)])


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
                rng = random.Random(seed ^ trial)
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
        with pytest.raises(CapacityError):
            random_avoider(replace(config, side=54))

    def test_reproducible_per_seed(self):
        config = GeneratorConfig(pattern=ALL_ONES_2, side=8, p=0.25, seed=3, trials=2)
        first = random_avoider(config, 1)
        second = random_avoider(config, 1)
        assert first == second

    def test_trial_seed_is_xor_of_seed_and_index(self):
        config = GeneratorConfig(pattern=ALL_ONES_2, side=6, p=0.3, seed=12, trials=4)
        _, stats = random_avoider(config, 3)
        assert stats.seed == 12 ^ 3

    def test_default_density_formula(self):
        # (1/2) * 8^(-(2+2-2)/(4-1)) = (1/2) * 8^(-2/3) = 1/8
        assert default_density(ALL_ONES_2, 8) == pytest.approx(0.125)

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
        assert total / 30 >= 0.9 * target


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
