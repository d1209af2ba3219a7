"""Containment relations checked against definition-level brute force."""

import math
import os
import random
import threading
import time
import tracemalloc
from itertools import combinations, product
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternex import (
    CapacityError,
    ConsistencyError,
    HypergraphEmbedding,
    InputError,
    MatrixEmbedding,
    OrderedHypergraph,
    PartsSpec,
    associated_matrix,
    hypergraph_contains,
    klazar_marcus_check,
    make_hypergraph,
    make_matrix,
    matrix_contains,
    permutation_matrix,
    verify_hypergraph_embedding,
    verify_matrix_embedding,
)
from patternex import containment
from patternex.verify import all_graphs, check_association_equivalence

from oracles import (
    brute_hypergraph_contains,
    brute_least_embedding,
    brute_matrix_contains,
    brute_part_respecting_contains,
    is_matrix_embedding,
    reference_hyper_embedding,
    reference_matrix_embedding,
)
from test_structures import matrices


@st.composite
def hypergraphs(draw, max_n=4, max_edges=4):
    n = draw(st.integers(1, max_n))
    universe = []
    for size in range(1, n + 1):
        universe.extend(combinations(range(1, n + 1), size))
    edges = draw(st.frozensets(st.sampled_from(universe), max_size=max_edges))
    return OrderedHypergraph(n, edges)


@st.composite
def index_lists(draw, host, pattern):
    """Per-axis increasing index lists: the least embedding of the pattern
    in the host, lists of the pattern's extents in the host's range, or
    lists of any dimension and lengths near the pattern's, with indices
    from 0 to one past the host's extent."""
    kind = draw(st.sampled_from(["found", "shaped", "any"]))
    found = matrix_contains(host, pattern) if kind == "found" else None
    if found is not None:
        return found.axis_indices
    shaped = host.d == pattern.d and all(map(le, pattern.extents, host.extents))
    if kind != "any" and shaped:
        return tuple(
            tuple(sorted(draw(st.sets(st.integers(1, n), min_size=k, max_size=k))))
            for k, n in zip(pattern.extents, host.extents)
        )
    axes = []
    for axis in range(draw(st.integers(host.d - 1, host.d + 1))):
        n = host.extents[axis] if axis < host.d else 2
        k = pattern.extents[axis] if axis < pattern.d else 1
        size = min(draw(st.integers(max(k - 1, 0), k + 1)), n + 2)
        indices = draw(st.sets(st.integers(0, n + 1), min_size=size, max_size=size))
        axes.append(tuple(sorted(indices)))
    return tuple(axes)


@st.composite
def bipartite_graphs(draw, max_part=3):
    n = draw(st.integers(1, max_part))
    crossing = [(i, n + j) for i in range(1, n + 1) for j in range(1, n + 1)]
    edges = draw(st.frozensets(st.sampled_from(crossing)))
    return OrderedHypergraph(2 * n, edges)


class TestMatrixEmbedding:
    @pytest.mark.parametrize(
        "axes",
        [((2, 1), (1, 2)), ((1, 1), (2, 3)), ((1, 2), (1, 3, 3)), ((1, 2, 3), (1, 3, 2))],
        ids=["decreasing", "repeated", "repeated-last", "decreasing-last"],
    )
    def test_rejects_an_axis_that_is_not_strictly_increasing(self, axes):
        with pytest.raises(InputError, match="not strictly increasing"):
            MatrixEmbedding(axes)

    @pytest.mark.parametrize(
        "axes", [((), ()), ((3,), (2,)), ((), (5,)), ((1, 4), (2, 3), (7,))]
    )
    def test_accepts_empty_single_and_increasing_axes(self, axes):
        assert MatrixEmbedding(axes).axis_indices == axes

    @pytest.mark.parametrize(
        "axes",
        [((1, 3),), ((1, 3), (2, 3), (1,)), ((1, 4), (1, 3)), ((1, 2, 3), (1, 3)), ((1, 3), (3,))],
        ids=["too-few-axes", "too-many-axes", "index-out-of-range", "wrong-extent", "short-extent"],
    )
    def test_witness_check_refuses_a_misshapen_embedding(self, axes):
        # the re-check behind the exit 4 of `contains` and the benchmark's
        # embedding check; each selection holds the pattern's two 1-entries
        host = make_matrix([3, 3], [(1, 1), (2, 2), (3, 3)])
        pattern = make_matrix([2, 2], [(1, 1), (2, 2)])
        assert verify_matrix_embedding(host, pattern, MatrixEmbedding(((1, 3), (1, 3))))
        assert not verify_matrix_embedding(host, pattern, MatrixEmbedding(axes))

    @pytest.mark.parametrize(
        "host_extents, host_ones, pattern, expected",
        [
            ([2, 2], [(1, 2)], make_matrix([2, 2], [(1, 2)]), True),
            ([2, 2], [], make_matrix([2, 2], [(1, 1)]), False),
            ([2, 2], [(1, 1), (1, 2), (2, 1), (2, 2)], permutation_matrix((1, 2)), True),
            ([2, 2], [], make_matrix([2, 3], []), False),
        ],
        ids=["reflexive", "zero-host", "full-host", "extent-mismatch"],
    )
    def test_full_index_lists_compare_entrywise(self, host_extents, host_ones, pattern, expected):
        # the pattern's own index lists select the host's leading submatrix:
        # it embeds when each pattern 1-entry is a host 1-entry, and a
        # pattern longer than the host on an axis lists an index past it
        host = make_matrix(host_extents, host_ones)
        axes = tuple(tuple(range(1, k + 1)) for k in pattern.extents)
        assert verify_matrix_embedding(host, pattern, MatrixEmbedding(axes)) is expected

    @settings(max_examples=300, deadline=None)
    @given(matrices(), matrices(), st.data())
    def test_witness_check_is_the_definition(self, host, pattern, data):
        # valid embeddings, and lists out of range, of the wrong length or
        # of the wrong dimension (see index_lists)
        axes = data.draw(index_lists(host, pattern))
        assert verify_matrix_embedding(host, pattern, MatrixEmbedding(axes)) == (
            is_matrix_embedding(host, pattern, axes)
        )


class TestMatrixContains:
    def test_self_containment_uses_full_index_lists(self):
        m = make_matrix([2, 3], [(1, 2), (2, 1)])
        emb = matrix_contains(m, m)
        assert emb.axis_indices == ((1, 2), (1, 2, 3))

    def test_single_entry_pattern(self):
        single = make_matrix([1, 1], [(1, 1)])
        assert matrix_contains(make_matrix([3, 3], [(2, 3)]), single) is not None
        assert matrix_contains(make_matrix([3, 3], []), single) is None

    def test_three_by_three_instance(self):
        identity = permutation_matrix((1, 2))
        host = make_matrix([3, 3], [(1, 1), (2, 3), (3, 2)])
        emb = matrix_contains(host, identity)
        assert emb.axis_indices == ((1, 2), (1, 3))
        assert matrix_contains(make_matrix([3, 3], [(1, 3), (2, 2), (3, 1)]), identity) is None

    def test_lexicographically_least_embedding(self):
        host = make_matrix([3, 3], [(1, 1), (2, 2), (3, 3)])
        emb = matrix_contains(host, permutation_matrix((1, 2)))
        assert emb.axis_indices == ((1, 2), (1, 2))

    def test_weight_zero_pattern(self):
        empty = make_matrix([2, 2], [])
        emb = matrix_contains(make_matrix([3, 3], []), empty)
        assert emb.axis_indices == ((1, 2), (1, 2))
        emb = matrix_contains(make_matrix([3, 3, 3], []), make_matrix([2, 2, 2], []))
        assert emb.axis_indices == ((1, 2), (1, 2), (1, 2))
        assert matrix_contains(make_matrix([2, 2], []), make_matrix([3, 2], [])) is None

    def test_a_host_row_with_exactly_the_needed_ones_is_tried(self):
        # host row 2 holds two 1-entries, as many as the pattern row needs;
        # rows 1 and 3 hold one each and are skipped by count
        host = make_matrix([3, 3], [(1, 1), (2, 1), (2, 3)])
        emb = matrix_contains(host, make_matrix([1, 2], [(1, 1), (1, 2)]))
        assert emb.axis_indices == ((2,), (1, 3))
        assert _same_matrix_answer((3, 3), host.ones, (1, 2), {(1, 1), (1, 2)})

    @settings(max_examples=120, deadline=None)
    @given(matrices(max_d=2), matrices(max_d=2))
    def test_matches_brute_force(self, host, pattern):
        emb = matrix_contains(host, pattern)
        least = brute_least_embedding(host, pattern)
        assert (emb is None) == (least is None)
        if emb is not None:
            assert emb.axis_indices == least
            assert verify_matrix_embedding(host, pattern, emb)

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_d=3, max_extent=2), matrices(max_d=3, max_extent=2))
    def test_matches_brute_force_3d(self, host, pattern):
        emb = matrix_contains(host, pattern)
        least = brute_least_embedding(host, pattern)
        assert (None if emb is None else emb.axis_indices) == least

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_d=2), matrices(max_d=2), st.randoms(use_true_random=False))
    def test_monotone_under_added_entries(self, host, pattern, rng):
        if matrix_contains(host, pattern) is None:
            return
        cells = [
            c
            for c in product(*(range(1, n + 1) for n in host.extents))
            if c not in host.ones
        ]
        extra = rng.sample(cells, min(len(cells), 2))
        grown = make_matrix(host.extents, list(host.ones) + extra)
        assert matrix_contains(grown, pattern) is not None


class TestHypergraphContains:
    def test_reflexive(self):
        h = make_hypergraph(4, [(1, 3), (2, 4)])
        emb = hypergraph_contains(h, h)
        assert emb.vertex_map == (1, 2, 3, 4)
        assert verify_hypergraph_embedding(h, h, emb)

    def test_single_edge_pattern(self):
        pattern = make_hypergraph(2, [(1, 2)])
        assert hypergraph_contains(make_hypergraph(3, [(1, 2, 3)]), pattern) is not None
        assert hypergraph_contains(make_hypergraph(3, [(2,)]), pattern) is None

    def test_partite_instances(self):
        host = make_hypergraph(4, [(1, 3), (2, 4)])
        assert hypergraph_contains(host, host) is not None
        other = make_hypergraph(4, [(1, 2), (3, 4)])
        assert hypergraph_contains(other, host) is None

    def test_nested_edges_need_backtracking(self):
        # a first-fit edge assignment would strand the larger pattern edge
        host = make_hypergraph(3, [(1, 2), (1, 3)])
        pattern = make_hypergraph(2, [(1,), (1, 2)])
        emb = hypergraph_contains(host, pattern)
        assert emb is not None
        assert verify_hypergraph_embedding(host, pattern, emb)

    def test_empty_pattern(self):
        empty = OrderedHypergraph(0, frozenset())
        assert hypergraph_contains(make_hypergraph(2, [(1,)]), empty) is not None

    def test_isolated_vertices_matter(self):
        pattern = make_hypergraph(3, [(1, 2)])
        assert hypergraph_contains(make_hypergraph(2, [(1, 2)]), pattern) is None
        assert hypergraph_contains(make_hypergraph(3, [(1, 2)]), pattern) is not None

    @pytest.mark.parametrize(
        "edge_map",
        [(((1, 2), (1, 3)), ((1, 2), (1, 2))), (((1, 2), (1, 2)), ((1, 2), (1, 3)))],
        ids=["fitting-image-last", "fitting-image-first"],
    )
    def test_witness_check_refuses_a_pattern_edge_listed_twice(self, edge_map):
        host = make_hypergraph(3, [(1, 2), (1, 3), (2, 3)])
        pattern = make_hypergraph(2, [(1, 2)])
        assert verify_hypergraph_embedding(
            host, pattern, HypergraphEmbedding((1, 2), (((1, 2), (1, 2)),))
        )
        assert not verify_hypergraph_embedding(host, pattern, HypergraphEmbedding((1, 2), edge_map))

    @pytest.mark.parametrize(
        "pattern_edges,vertex_map,edge_map",
        [
            ([(1, 2)], (1, 2, 3), {(1, 2): (1, 2)}),
            ([(1, 2)], (2, 1), {(1, 2): (1, 2)}),
            ([(1, 2)], (2, 2), {(1, 2): (2, 3)}),
            ([(1, 2)], (0, 1), {(1, 2): (1, 2)}),
            ([(1, 2)], (4, 5), {(1, 2): (3, 4)}),
            ([(1,), (1, 2)], (1, 2), {(1,): (1, 2), (1, 2): (1, 2)}),
            ([(1, 2)], (1, 3), {(1, 2): (1, 3)}),
        ],
        ids=[
            "f-of-wrong-length",
            "f-decreasing",
            "f-repeated",
            "f-below-1",
            "f-above-n",
            "repeated-edge-image",
            "image-not-a-host-edge",
        ],
    )
    def test_witness_check_refuses_a_bad_vertex_or_edge_map(
        self, pattern_edges, vertex_map, edge_map
    ):
        # every image holds the image of its pattern edge under f, so the
        # one fault named by the id is what the re-check refuses
        host = make_hypergraph(4, [(1, 2), (2, 3), (3, 4)])
        pattern = make_hypergraph(2, pattern_edges)
        assert verify_hypergraph_embedding(
            host, pattern, HypergraphEmbedding((1, 2), (((1, 2), (1, 2)),))
        ) == (pattern_edges == [(1, 2)])
        embedding = HypergraphEmbedding(vertex_map, tuple(sorted(edge_map.items())))
        assert not verify_hypergraph_embedding(host, pattern, embedding)

    @pytest.mark.parametrize(
        "host_n,host_edges,pattern_edges,vertex_map,edge_map",
        [
            # host vertex 2 is in exactly the three edges the claw's centre needs
            (
                5,
                [(1, 3), (2, 3), (2, 4), (2, 5)],
                [(1, 2), (1, 3), (1, 4)],
                (2, 3, 4, 5),
                {(1, 2): (2, 3), (1, 3): (2, 4), (1, 4): (2, 5)},
            ),
            # host vertex 4 ends exactly three edges, each of size 3 and a
            # superset of a claw edge, and has no vertex above it
            (
                4,
                [(1, 2, 4), (1, 3, 4), (2, 3, 4)],
                [(1, 4), (2, 4), (3, 4)],
                (1, 2, 3, 4),
                {(1, 4): (1, 2, 4), (2, 4): (2, 3, 4), (3, 4): (1, 3, 4)},
            ),
        ],
        ids=["claw-centre-first", "claw-centre-last-in-superset-edges"],
    )
    def test_a_host_vertex_in_exactly_the_needed_edges_is_tried(
        self, host_n, host_edges, pattern_edges, vertex_map, edge_map
    ):
        host = make_hypergraph(host_n, host_edges)
        pattern = make_hypergraph(4, pattern_edges)
        found = hypergraph_contains(host, pattern)
        assert found.vertex_map == vertex_map
        assert dict(found.edge_map) == edge_map
        assert verify_hypergraph_embedding(host, pattern, found)
        assert _same_hyper_answer(host_n, host_edges, 4, pattern_edges)

    @settings(max_examples=120, deadline=None)
    @given(hypergraphs(), hypergraphs())
    def test_matches_brute_force(self, host, pattern):
        emb = hypergraph_contains(host, pattern)
        assert (emb is not None) == brute_hypergraph_contains(host, pattern)
        if emb is not None:
            assert verify_hypergraph_embedding(host, pattern, emb)

    @settings(max_examples=40, deadline=None)
    @given(hypergraphs(max_n=3, max_edges=3), hypergraphs(max_n=3, max_edges=3), hypergraphs(max_n=3, max_edges=3))
    def test_transitive(self, a, b, c):
        if hypergraph_contains(a, b) is not None and hypergraph_contains(b, c) is not None:
            assert hypergraph_contains(a, c) is not None


def _all_bipartite(part_size):
    # every graph on the crossing pairs (i, part_size + j), as verify's sweep lists them
    crossing = product(range(1, part_size + 1), range(part_size + 1, 2 * part_size + 1))
    return list(all_graphs(2 * part_size, crossing))


class TestKlazarMarcus:
    def test_reflexive(self):
        g = make_hypergraph(4, [(1, 3), (2, 4)])
        assert klazar_marcus_check(g, g)

    def test_edgeless_host_one_edge_pattern(self):
        host = make_hypergraph(4, [])
        pattern = make_hypergraph(4, [(1, 3)])
        assert klazar_marcus_check(host, pattern, 2) is False

    def test_never_raises_exhaustive_small(self):
        # with equal vertex counts the vertex map is forced to be the
        # identity, so both routes reduce to edge inclusion
        for n in (1, 2):
            graphs = _all_bipartite(n)
            for host in graphs:
                for pattern in graphs:
                    expected = pattern.edges <= host.edges
                    assert klazar_marcus_check(host, pattern, 2) == expected

    def test_both_engines_answer_edge_inclusion_at_part_size_3(self):
        # the sweep's 262,144 pairs against a reference that runs no
        # engine: equal part sizes force the identity vertex map, so each
        # route contains exactly when pattern.edges <= host.edges.  Each of
        # the 9 crossing pairs lies in neither graph, the host only, or
        # both, so 3^9 pairs are contained
        graphs = _all_bipartite(3)
        forms = [containment._partite_forms(g, 2) for g in graphs]
        tail = forms[0][0][0][1:]
        placements = containment._placement_table(tail, tail)
        hyper_search = containment._hyper_embedding_search
        matrix_search = containment._matrix_embedding_search
        contained = 0
        for host, (host_matrix, host_hyper, _) in zip(graphs, forms):
            for pattern, (pattern_matrix, _, pattern_hyper) in zip(graphs, forms):
                expected = pattern.edges <= host.edges
                assert (hyper_search(host_hyper, pattern_hyper) is not None) == expected
                found = matrix_search(host_matrix, pattern_matrix, placements)
                assert (found is not None) == expected
                contained += expected
        assert contained == 3**9

    @settings(max_examples=80, deadline=None)
    @given(bipartite_graphs(max_part=3), bipartite_graphs(max_part=3))
    def test_never_raises_random(self, host, pattern):
        if host.n == pattern.n:
            klazar_marcus_check(host, pattern, 2)

    def test_edgeless_inputs_without_d_are_trivially_equivalent(self):
        edgeless = make_hypergraph(4, [])
        assert klazar_marcus_check(edgeless, edgeless) is True

    @pytest.mark.parametrize(
        "host_edges,pattern_edges,d,message",
        [
            ([(1, 4)], [(1, 2, 4)], None, "inputs are not uniform: edge sizes [2, 3]"),
            ([(1, 4)], [(1, 4)], 3, "edge size 2 does not match d=3"),
        ],
        ids=["not-uniform", "edge-size-not-d"],
    )
    def test_input_messages(self, host_edges, pattern_edges, d, message):
        host = make_hypergraph(6, host_edges)
        pattern = make_hypergraph(6, pattern_edges)
        with pytest.raises(InputError) as info:
            klazar_marcus_check(host, pattern, d)
        assert str(info.value) == message

    def test_unequal_sizes_rejected(self):
        host = make_hypergraph(6, [(1, 4)])
        pattern = make_hypergraph(4, [(1, 4)])
        with pytest.raises(InputError):
            klazar_marcus_check(host, pattern, 2)

    @settings(max_examples=80, deadline=None)
    @given(bipartite_graphs(max_part=3), bipartite_graphs(max_part=3))
    def test_matrix_route_implies_order_containment(self, host, pattern):
        # the direction that survives unequal part sizes
        if pattern.n > host.n:
            return
        host_m = associated_matrix(host, PartsSpec.equal(2, host.n // 2))
        pat_m = associated_matrix(pattern, PartsSpec.equal(2, pattern.n // 2))
        if matrix_contains(host_m, pat_m) is not None:
            assert hypergraph_contains(host, pattern) is not None

    @pytest.mark.parametrize("d", [0, 1, -1])
    def test_fewer_than_two_parts_rejected(self, d):
        edgeless = make_hypergraph(4, [])
        with pytest.raises(InputError):
            klazar_marcus_check(edgeless, edgeless, d)

    def test_not_partite_rejected(self):
        bad = make_hypergraph(4, [(1, 2)])
        with pytest.raises(InputError):
            klazar_marcus_check(bad, bad, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_never_raises_three_dimensional(self, rng):
        crossing = [
            (i, 2 + j, 4 + l) for i in (1, 2) for j in (1, 2) for l in (1, 2)
        ]
        host = OrderedHypergraph(
            6, frozenset(rng.sample(crossing, rng.randint(0, 8)))
        )
        pattern = OrderedHypergraph(
            6, frozenset(rng.sample(crossing, rng.randint(0, 8)))
        )
        klazar_marcus_check(host, pattern, 3)

    @pytest.mark.parametrize(
        "bad",
        [make_hypergraph(4, [(1, 2)]), make_hypergraph(3, [(1, 3)])],
        ids=["not_partite", "odd_vertex_count"],
    )
    def test_invalid_input_raises_on_every_call(self, bad):
        for _ in range(2):
            with pytest.raises(InputError):
                klazar_marcus_check(bad, bad, 2)

    def test_each_graph_is_associated_once_per_sweep(self, monkeypatch):
        # counts association and preparation work only: the two search
        # steps the sweep runs are stubbed out, test_09 checks its answers
        calls = dict.fromkeys(
            ("associated_matrix", "_matrix_form", "_hyper_host_form", "_hyper_pattern_form"), 0
        )

        def counting(name):
            original = getattr(containment, name)

            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        for name in calls:
            monkeypatch.setattr(containment, name, counting(name))
        monkeypatch.setattr(containment, "_hyper_embedding_search", lambda host, pattern: None)
        monkeypatch.setattr(
            containment, "_matrix_embedding_search", lambda host, pattern, placements: None
        )
        tails = []
        table = containment._placement_table
        monkeypatch.setattr(
            containment, "_placement_table", lambda *shapes: tails.append(shapes) or table(*shapes)
        )
        check_association_equivalence(3)
        # 2 + 16 + 512 distinct graphs over 4 + 256 + 262144 pairs
        assert calls == dict.fromkeys(calls, 530)
        # one placement table per part size, where a per-pair fetch makes 262,404
        assert tails == [((1,), (1,)), ((2,), (2,)), ((3,), (3,))]

    @pytest.mark.parametrize(
        "matrix_defect,hyper_defect",
        [(None, None), ((0, 2), None), (None, (0, 2)), ((3, 1), None), ((0, 2), (3, 1))],
        ids=["sound", "matrix", "hyper", "matrix_off_diagonal", "both"],
    )
    def test_sweep_matches_a_per_pair_loop(self, monkeypatch, matrix_defect, hyper_defect):
        # a planted defect (h, p) misses every copy when the host has at
        # least h and the pattern at least p 1-entries or edges; slot 1 of
        # each prepared form holds its count (a weight or an edge count)
        for name, defect in (
            ("_matrix_embedding_search", matrix_defect),
            ("_hyper_embedding_search", hyper_defect),
        ):
            if defect is not None:
                engine = getattr(containment, name)

                def search(host, pattern, *placements, engine=engine, defect=defect):
                    if host[1] >= defect[0] and pattern[1] >= defect[1]:
                        return None
                    return engine(host, pattern, *placements)

                monkeypatch.setattr(containment, name, search)
        for part_size in (1, 2):
            graphs = _all_bipartite(part_size)
            expected = None
            for host, pattern in product(graphs, graphs):
                try:
                    klazar_marcus_check(host, pattern, 2)
                except ConsistencyError as exc:
                    expected = (host, pattern, str(exc))
                    break
            assert containment.association_disagreement(graphs, 2) == expected
            assert (expected is None) == (part_size == 1 or matrix_defect == hyper_defect)

    def test_sweep_raises_the_per_pair_input_error(self):
        graphs = _all_bipartite(2)
        graphs.insert(5, make_hypergraph(4, [(1, 2)]))
        with pytest.raises(InputError) as per_pair:
            for host, pattern in product(graphs, graphs):
                klazar_marcus_check(host, pattern, 2)
        with pytest.raises(InputError) as sweep:
            containment.association_disagreement(graphs, 2)
        assert str(sweep.value) == str(per_pair.value) == "input is not d-partite with equal parts"

    def test_an_empty_sweep_finds_no_disagreement(self):
        assert containment.association_disagreement([], 2) is None

    @pytest.mark.parametrize(
        "graphs,d",
        [(_all_bipartite(1), 0), (_all_bipartite(1), 1), (_all_bipartite(1) + _all_bipartite(2), 2)],
        ids=["d0", "d1", "mixed_part_sizes"],
    )
    def test_sweep_rejects_fewer_than_two_parts_and_mixed_sizes(self, graphs, d):
        with pytest.raises(InputError):
            containment.association_disagreement(graphs, d)


class TestStripedSweep:
    """The part-size-3 sweep split over two processes against the same
    sweep in one process, which test_sweep_matches_a_per_pair_loop ties to
    the per-pair loop.  Host h lies in stripe h mod 2: stripe 0 runs in
    this process, stripe 1 in a forked child, which reports only through
    its exit status."""

    GRAPHS = _all_bipartite(3)

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _plant(monkeypatch, missed=(), raising=(), raise_in_child=False):
        # the matrix search misses every copy in a host of ``missed``, so
        # the first disagreement is (min(missed), 0); it raises on a host
        # of ``raising`` (every host for None), and on every pair in a
        # process other than this one when ``raise_in_child`` is set
        graphs = TestStripedSweep.GRAPHS
        form = lambda h: containment._partite_forms(graphs[h], 2)[0]
        missed_forms = [form(h) for h in missed]
        raising_forms = None if raising is None else [form(h) for h in raising]
        parent = os.getpid()
        engine = containment._matrix_embedding_search

        def search(host, pattern, placements):
            if raise_in_child and os.getpid() != parent:
                raise RuntimeError("planted in a child")
            if raising_forms is None or host in raising_forms:
                raise RuntimeError(f"planted at weights {host[1]} {pattern[1]}")
            if host in missed_forms:
                return None
            return engine(host, pattern, placements)

        monkeypatch.setattr(containment, "_matrix_embedding_search", search)

    @staticmethod
    def _sweep(monkeypatch, cpus, graphs=GRAPHS):
        # the sweep's answer, or a planted error's text, and the forks made
        monkeypatch.setattr(containment, "_available_cpus", lambda: cpus)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        try:
            return containment.association_disagreement(graphs, 2), len(forks)
        except RuntimeError as exc:
            return str(exc), len(forks)

    @pytest.mark.parametrize(
        "missed,raising,first",
        [
            ((46,), (), 46),
            ((511,), (), 511),
            ((131, 256), (), 131),
            ((130, 257), (), 130),
            ((130,), (301,), 130),
            ((256,), (131,), None),
            ((), None, None),
        ],
        ids=[
            "stripe0",
            "stripe1",
            "child_first",
            "parent_first",
            "raise_after_disagreement",
            "raise_before_disagreement",
            "raise_everywhere",
        ],
    )
    def test_two_stripes_give_the_serial_answer(self, monkeypatch, missed, raising, first):
        self._plant(monkeypatch, missed, raising)
        serial, serial_forks = self._sweep(monkeypatch, 1)
        striped, striped_forks = self._sweep(monkeypatch, 2)
        assert (serial_forks, striped_forks) == (0, 1)
        assert striped == serial
        if first is None:
            assert serial.startswith("planted at weights")
        else:
            assert serial[:2] == (self.GRAPHS[first], self.GRAPHS[0])

    def test_a_failed_child_sends_the_sweep_to_the_serial_sweep(self, monkeypatch):
        self._plant(monkeypatch, missed=(131,))
        serial, _ = self._sweep(monkeypatch, 1)
        self._plant(monkeypatch, missed=(131,), raise_in_child=True)
        striped, forks = self._sweep(monkeypatch, 2)
        assert forks == 1
        assert striped == serial
        assert serial[0] == self.GRAPHS[131]

    def test_a_child_that_exits_non_zero_is_not_believed(self, monkeypatch):
        # the child's engine misses every copy, so it finds a disagreement
        # at host 1 and exits 3: the parent re-runs every pair soundly
        parent = os.getpid()
        engine = containment._matrix_embedding_search
        exit_now = os._exit

        def search(host, pattern, placements):
            return None if os.getpid() != parent else engine(host, pattern, placements)

        monkeypatch.setattr(containment, "_matrix_embedding_search", search)
        monkeypatch.setattr(os, "_exit", lambda code: exit_now(3))
        assert self._sweep(monkeypatch, 2) == (None, 1)

    def test_a_failed_fork_gives_the_serial_answer(self, monkeypatch):
        self._plant(monkeypatch, missed=(131,))
        serial, _ = self._sweep(monkeypatch, 1)

        def no_fork():
            raise OSError("planted")

        monkeypatch.setattr(containment, "_available_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert containment.association_disagreement(self.GRAPHS, 2) == serial

    def test_an_interrupt_kills_and_reaps_the_child(self, monkeypatch):
        parent = os.getpid()
        engine = containment._matrix_embedding_search

        def search(host, pattern, placements):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return engine(host, pattern, placements)

        monkeypatch.setattr(containment, "_matrix_embedding_search", search)
        monkeypatch.setattr(containment, "_available_cpus", lambda: 2)
        with pytest.raises(KeyboardInterrupt):
            containment.association_disagreement(self.GRAPHS, 2)

    def test_a_second_thread_keeps_the_sweep_in_one_process(self, monkeypatch):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert self._sweep(monkeypatch, 2) == (None, 0)
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_each_process_gets_at_least_min_pairs_per_worker(self, monkeypatch):
        for part_size in (1, 2):
            assert self._sweep(monkeypatch, 64, _all_bipartite(part_size)) == (None, 0)
        # 512 ** 2 pairs make 8 stripes of MIN_PAIRS_PER_WORKER
        assert self._sweep(monkeypatch, 64) == (None, 7)


@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3)])
def test_unequal_parts_matrix_containment_is_part_respecting(k, n):
    # the regime where the Klazar-Marcus equivalence with plain order
    # containment fails: pattern parts of size k, host parts of size n > k.
    # Matrix containment is part-respecting containment, and it implies
    # order containment.  order_only pairs order-contain without it: the
    # vertex map sends a pattern vertex across the part boundary.  At
    # k = 1 the pattern has at most one edge, which both routes map onto
    # any host edge, so there are none
    order_only = {(1, 2): 0, (1, 3): 0, (2, 3): 120}[k, n]
    pattern_parts, host_parts = PartsSpec.equal(2, k), PartsSpec.equal(2, n)
    hosts = [(h, associated_matrix(h, host_parts)) for h in _all_bipartite(n)]
    found = 0
    for pattern in _all_bipartite(k):
        pattern_m = associated_matrix(pattern, pattern_parts)
        for host, host_m in hosts:
            matrix_side = matrix_contains(host_m, pattern_m) is not None
            assert matrix_side == brute_part_respecting_contains(
                host, host_parts, pattern, pattern_parts
            )
            order_side = hypergraph_contains(host, pattern) is not None
            assert order_side or not matrix_side
            found += order_side and not matrix_side
    assert found == order_only



# ---------------------------------------------------------------------------
# the bitmask engines against the engines they replaced

NON_PERMUTATION = {
    "J2": ((2, 2), [(1, 1), (1, 2), (2, 1), (2, 2)]),
    "Z23": ((2, 3), [(1, 1), (1, 3), (2, 2)]),
    "C33": ((3, 3), [(1, 2), (2, 1), (2, 3), (3, 2)]),
}


def _same_matrix_answer(host_extents, host_ones, pat_extents, pat_ones):
    # the search's callers test the shapes before they fetch the placement
    # table, and so does this one; the search tests the weights
    found = None
    if len(pat_extents) == len(host_extents) and all(map(le, pat_extents, host_extents)):
        found = containment._matrix_embedding_search(
            containment._matrix_form(host_extents, host_ones),
            containment._matrix_form(pat_extents, pat_ones),
            containment._placement_table(pat_extents[1:], host_extents[1:]),
        )
    expected = reference_matrix_embedding(host_extents, host_ones, pat_extents, pat_ones)
    assert found == expected, (host_extents, sorted(host_ones), pat_extents, sorted(pat_ones))
    return found is not None


def _same_hyper_answer(host_n, host_edges, pat_n, pat_edges):
    found = containment._hyper_embedding_search(
        containment._hyper_host_form(host_n, host_edges),
        containment._hyper_pattern_form(pat_n, pat_edges),
    )
    expected = reference_hyper_embedding(host_n, host_edges, pat_n, pat_edges)
    assert found == expected, (host_n, host_edges, pat_n, pat_edges)
    return found is not None


class CountingRows(list):
    """A form's list of host rows that counts the rows read from it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def _path_row_reads(pat_n, pat_edges):
    """The host rows the hypergraph search reads to refuse a pattern in
    the 40-vertex path."""
    path = [(v, v + 1) for v in range(1, 40)]
    host_n, host_m, width, fit = containment._hyper_host_form(40, path)
    rows = CountingRows(fit)
    found = containment._hyper_embedding_search(
        (host_n, host_m, width, rows), containment._hyper_pattern_form(pat_n, pat_edges)
    )
    assert found is None
    return rows.reads


class TestEnginesMatchReferences:
    """Least embeddings equal those of the slice scan and the list-based
    backtracking (``tests/oracles.py``), on seeded random instances."""

    @pytest.mark.parametrize("label", ["perm3", "perm4", "perm5", "J2", "Z23", "C33"])
    def test_matrix_classes_around_the_threshold(self, label):
        rng = random.Random(f"engine-diff/{label}")
        answers = set()
        for side in (6, 9, 12):
            for factor in (0.5, 1.0, 2.0):
                for planted in (False, True) * 4:
                    if label.startswith("perm"):
                        perm = rng.sample(range(1, int(label[4:]) + 1), int(label[4:]))
                        extents = (len(perm), len(perm))
                        ones = [(i, v) for i, v in enumerate(perm, start=1)]
                    else:
                        extents, ones = NON_PERMUTATION[label]
                    threshold = (
                        math.comb(side, extents[0]) * math.comb(side, extents[1])
                    ) ** (-1 / len(ones))
                    density = min(0.9, factor * threshold)
                    host = {
                        cell
                        for cell in product(range(1, side + 1), repeat=2)
                        if rng.random() < density
                    }
                    if planted:
                        rows = sorted(rng.sample(range(1, side + 1), extents[0]))
                        cols = sorted(rng.sample(range(1, side + 1), extents[1]))
                        host |= {(rows[i - 1], cols[j - 1]) for i, j in ones}
                    answers.add(_same_matrix_answer((side, side), host, extents, frozenset(ones)))
        assert answers == {False, True}

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matrix_random_shapes(self, d):
        # patterns with empty rows and columns, and hosts of every density
        rng = random.Random(f"engine-diff/d{d}")
        answers = set()
        for _ in range({2: 600, 3: 300, 4: 100}[d]):
            pat_extents = tuple(rng.randint(1, 3 if d < 4 else 2) for _ in range(d))
            host_extents = tuple(k + rng.randint(-1, 3 if d == 2 else 1) for k in pat_extents)
            host_extents = tuple(max(1, n) for n in host_extents)
            p, q = rng.random(), rng.random()
            pat_ones = frozenset(
                c for c in product(*(range(1, k + 1) for k in pat_extents)) if rng.random() < p
            )
            host_ones = {
                c for c in product(*(range(1, n + 1) for n in host_extents)) if rng.random() < q
            }
            answers.add(_same_matrix_answer(host_extents, host_ones, pat_extents, pat_ones))
        assert answers == {False, True}

    def test_hypergraphs_mixed_sizes_and_isolated_vertices(self):
        rng = random.Random("engine-diff/hyper")
        answers = set()
        for _ in range(1500):
            host_n = rng.randint(1, 10)
            pat_n = rng.randint(1, min(host_n, 6))
            host_edges = _random_edges(rng, host_n, rng.randint(0, 3 * host_n), 4)
            pat_edges = _random_edges(rng, pat_n, rng.randint(0, pat_n), 3)
            answers.add(_same_hyper_answer(host_n, host_edges, pat_n, pat_edges))
        assert answers == {False, True}

    def test_hypergraphs_of_one_edge_size(self):
        # graphs and 3-uniform hypergraphs, where backtracking also skips
        # vertices whose edges all end at them; patterns are sparse, so
        # many interior vertices are in no edge or close all of theirs.
        # Some hosts also carry smaller edges, which no pattern edge can use.
        rng = random.Random("engine-diff/one-size")
        answers = set()
        shapes = set()
        for size in (2, 3):
            for planted in (False, True) * 150:
                host_n = rng.randint(8, 14)
                pat_n = rng.randint(6, 8)
                pat_edges = _random_edges(rng, pat_n, rng.randint(1, 4), size, size)
                host = set(_random_edges(rng, host_n, rng.randint(0, 2 * host_n), size, size))
                if rng.random() < 0.25:
                    host |= set(_random_edges(rng, host_n, rng.randint(1, host_n), size - 1))
                if planted:
                    f = sorted(rng.sample(range(1, host_n + 1), pat_n))
                    host |= {tuple(f[v - 1] for v in edge) for edge in pat_edges}
                for v in range(2, pat_n):
                    held = [edge for edge in pat_edges if v in edge]
                    if not held:
                        shapes.add("isolated")
                    elif all(edge[-1] == v for edge in held):
                        shapes.add("closed")
                answers.add(_same_hyper_answer(host_n, sorted(host), pat_n, pat_edges))
        assert answers == {False, True}
        assert shapes == {"isolated", "closed"}

    @pytest.mark.parametrize(
        "host_n,host_edges,pattern_n,pattern_edges,vertex_map,edge_map",
        [
            # pattern edges of two sizes: at f = (1, 2) both need host edge
            # {1, 2}; vertex 2 ends both, and its image 3 frees {1, 3} and {3}
            (3, [(1, 2), (1, 3), (3,)], 2, [(1, 2), (2,)], (1, 3), {(1, 2): (1, 3), (2,): (3,)}),
            # pattern edges smaller than the host's: at f = (1, 2) both need {1, 2}
            (4, [(1, 2), (3, 4)], 2, [(1,), (2,)], (1, 3), {(1,): (1, 2), (2,): (3, 4)}),
        ],
        ids=["mixed-pattern-sizes", "smaller-pattern-edges"],
    )
    def test_closed_vertices_are_re_searched_when_the_leaf_can_fail(
        self, host_n, host_edges, pattern_n, pattern_edges, vertex_map, edge_map
    ):
        found = hypergraph_contains(
            make_hypergraph(host_n, host_edges), make_hypergraph(pattern_n, pattern_edges)
        )
        assert found.vertex_map == vertex_map
        assert dict(found.edge_map) == edge_map
        assert _same_hyper_answer(host_n, host_edges, pattern_n, pattern_edges)

    def test_backjumps_past_vertices_no_failure_blames(self):
        # two disjoint edges before a triangle, in the 40-vertex path: the
        # triangle {5, 6, 7} fails wherever 1..4 map, its failures blame only
        # 5 and 6, and so the later images of 1..4 are never tried.  A search
        # that re-tries them reads host rows about 140,000 times.
        assert _path_row_reads(7, [(1, 2), (3, 4), (5, 6), (5, 7), (6, 7)]) == 667

    @pytest.mark.parametrize(
        "pattern_edges,reads",
        [([(1, 2), (1, 3), (1, 4)], 37), ([(1, 4), (2, 4), (3, 4)], 40)],
        ids=["centre-first", "centre-last"],
    )
    def test_host_vertices_in_too_few_edges_are_skipped_by_count(self, pattern_edges, reads):
        # no vertex of the path is in the claw centre's three edges; a
        # search that tests each such vertex edge by edge reads host rows
        # 777 (centre first) and 814 (centre last) times
        assert _path_row_reads(4, pattern_edges) == reads

    def test_host_form_matches_its_definition(self):
        rng = random.Random("host-form/definition")
        hosts = [(0, []), (5, [])]
        for _ in range(200):
            n = rng.randint(1, 9)
            hosts.append((n, _random_edges(rng, n, rng.randint(1, 2 * n), 4)))
        for n, edges in hosts:
            form_n, m, form_width, fit = containment._hyper_host_form(n, edges)
            width = max(map(len, edges), default=0)
            assert (form_n, m, form_width) == (n, len(edges), width)
            expected_fit = [
                [
                    sum(
                        1 << i
                        for i, edge in enumerate(edges)
                        if w in edge and len(edge) - edge.index(w) - 1 >= r
                    )
                    for r in range(width)
                ]
                for w in range(1, n + 1)
            ]
            assert fit == expected_fit, (n, edges)

    def test_pattern_form_matches_its_definition(self):
        rng = random.Random("pattern-form/definition")
        patterns = [(0, []), (5, [])]
        for _ in range(200):
            n = rng.randint(1, 9)
            patterns.append((n, _random_edges(rng, n, rng.randint(1, 2 * n), 4)))
        for n, edges in patterns:
            touches = [
                [
                    (
                        i,
                        len(edge) - edge.index(u) - 1,
                        sum(1 << (v - 1) for v in edge if v < u),
                    )
                    for i, edge in enumerate(edges)
                    if u in edge
                ]
                for u in range(1, n + 1)
            ]
            in_edges = sum(1 << (v - 1) for v in {v for edge in edges for v in edge})
            largest = max(map(len, edges), default=0)
            assert containment._hyper_pattern_form(n, edges) == (
                n,
                len(edges),
                largest,
                touches,
                in_edges,
            ), (n, edges)

    def test_matrix_form_matches_its_definition(self):
        rng = random.Random("matrix-form/definition")
        shapes = [(1, 1), (1, 5), (4, 1), (1, 1, 1), (3, 1, 2), (2, 1, 3, 1)]
        shapes += [
            tuple(rng.randint(1, {2: 6, 3: 4, 4: 3}[d]) for _ in range(d))
            for d in rng.choices((2, 3, 4), k=195)
        ]
        for extents in shapes:
            cells = list(product(*(range(1, n + 1) for n in extents)))
            density = rng.choice((0.0, 0.3, 0.7))
            ones = [cell for cell in cells if rng.random() < density]
            rng.shuffle(ones)
            # the row-major tail number is the cell's index among the tail cells
            tails = list(product(*(range(1, n + 1) for n in extents[1:])))
            rows = [
                [tails.index(cell[1:]) for cell in ones if cell[0] == i]
                for i in range(1, extents[0] + 1)
            ]
            form = containment._matrix_form(extents, ones)
            assert form == (extents, len(ones), rows), (extents, ones)

    def test_a_large_sparse_host_prepares_in_memory_of_its_tail_shape(self):
        # a 2-d host numbers each cell by its column and builds no tail
        # table, so its 1000 rows add nothing but their lists (a table of
        # all its cells allocates about 100 MiB)
        host = make_matrix([1000, 1000], [(1, 1000), (999, 7), (1000, 7)])
        column = make_matrix([2, 1], [(1, 1), (2, 1)])
        tracemalloc.start()
        try:
            emb = matrix_contains(host, column)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emb.axis_indices == ((999, 1000), (7,))
        assert peak < 4 * 2**20

    def test_a_wide_host_past_the_placement_limit_is_refused_before_any_table(self):
        # a 1x1 pattern has one placement per host column, and the table
        # entry of column p is p bits wide: for a 1x100000 host the table
        # alone takes over 500 MiB
        host = make_matrix([1, 100_000], [(1, 1)])
        pattern = make_matrix([1, 1], [(1, 1)])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="over the limit"):
                matrix_contains(host, pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_a_shape_with_a_huge_placement_count_is_refused_at_once(self):
        # C(1000000, 500000) placements: computing the binomial took 6 s,
        # and printing its 10^6-bit count raised ValueError
        host = make_matrix([1, 1_000_000], [(1, 1)])
        pattern = make_matrix([1, 500_000], [(1, 1)])
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=r"\(500000,\) in \(1000000,\) takes at least"):
            matrix_contains(host, pattern)
        assert time.perf_counter() - start < 0.5

    def test_a_host_form_past_the_table_limit_is_refused_before_it_is_built(self):
        # one edge on all n vertices: fit has n rows of n ints, counted as
        # n * n * (1 + 64) bits, so 1240 vertices pass the limit and 1241
        # do not; 6000 vertices took about 290 MiB before the limit
        pattern = make_hypergraph(2, [(1, 2)])
        found = hypergraph_contains(make_hypergraph(1240, [range(1, 1241)]), pattern)
        assert found.vertex_map == (1, 2)
        host = make_hypergraph(1241, [range(1, 1242)])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="over the limit"):
                hypergraph_contains(host, pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # a pattern that the counts alone refuse answers before any form
        assert hypergraph_contains(host, make_hypergraph(1242, [])) is None

    def test_the_placement_cache_keeps_its_total_within_the_limit(self, monkeypatch):
        # 21 tables of (k - 1,) in (k,), each about 0.2 MiB traced and
        # under a limit lowered to 700,000 bits, but not two of them; a
        # cache bounded only by its 64 entries kept every one, about
        # 4 MiB, and a chain of the 2x2 identity to length 400 peaked at
        # 251 MiB RSS
        monkeypatch.setattr(containment, "MAX_TABLE_BITS", 700_000)
        tracemalloc.start()
        try:
            for k in range(50, 71):
                containment._placement_table((k - 1,), (k,))
                assert sum(bits for bits, _ in containment._placement_cache.values()) <= 700_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert list(containment._placement_cache) == [(69, 70)]

    def test_a_placement_cache_hit_builds_nothing_and_a_65th_table_empties_it(self, monkeypatch):
        builds = []
        build = containment._build_placements
        monkeypatch.setattr(
            containment, "_build_placements", lambda *tails: builds.append(tails) or build(*tails)
        )
        monkeypatch.setattr(containment, "_placement_cache", {})
        first = containment._placement_table((1,), (1,))
        assert containment._placement_table((1,), (1,)) is first
        for n in range(2, 65):
            containment._placement_table((1,), (n,))
            assert len(containment._placement_cache) == n
        containment._placement_table((1,), (65,))
        assert list(containment._placement_cache) == [(1, 65)]
        assert len(builds) == 65

    def test_a_heavier_pattern_reads_no_host_row(self):
        # no answer depends on the matrix search's weight test, as the
        # row scan refuses a heavier pattern too; it keeps the sweep from
        # scanning the rows of the pairs whose weights refuse them
        host_extents, host_weight, host_rows = containment._matrix_form(
            (3, 3), [(1, 1), (2, 2), (3, 3)]
        )
        rows = CountingRows(host_rows)
        found = containment._matrix_embedding_search(
            (host_extents, host_weight, rows),
            containment._matrix_form((2, 2), [(1, 1), (1, 2), (2, 1), (2, 2)]),
            containment._placement_table((2,), (3,)),
        )
        assert found is None
        assert rows.reads == 0

    def test_klazar_marcus_builds_only_the_hypergraph_forms_it_reads(self, monkeypatch):
        # under a limit of 530 bits the host form of {13} takes 4 * 2 * 65 =
        # 520 bits and that of {13,14,23,24} 544; the check reads only the
        # host's host form, so a pattern whose host form is past the limit
        # is still decided
        monkeypatch.setattr(containment, "MAX_TABLE_BITS", 530)
        monkeypatch.setattr(containment, "_placement_cache", {})
        host = make_hypergraph(4, [(1, 3)])
        pattern = make_hypergraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert klazar_marcus_check(host, pattern) is False
        with pytest.raises(CapacityError, match="takes 544 bits, over the limit 530"):
            klazar_marcus_check(pattern, host)

    def test_the_association_paths_refuse_a_shape_past_the_placement_limit(self):
        # one edge between two parts of 3000: the associated matrices are
        # 3000x3000 with equal tails, a table of 3000 * 3000 * 65 bits;
        # without the limit each call peaked at about 71 MiB traced
        h = make_hypergraph(6000, [(1, 3001)])
        calls = (
            lambda: klazar_marcus_check(h, h),
            lambda: containment.association_disagreement([h, h], 2),
        )
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError, match="over the limit"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20
        # parts of 1000 take 1000 * 1000 * 65 bits, under the limit
        h = make_hypergraph(2000, [(1, 1001)])
        assert klazar_marcus_check(h, h)
        assert containment.association_disagreement([h, h], 2) is None

    def test_every_small_klazar_marcus_pair(self):
        for part_size in (1, 2):
            parts = PartsSpec.equal(2, part_size)
            graphs = [(g, associated_matrix(g, parts)) for g in _all_bipartite(part_size)]
            for host, host_m in graphs:
                for pattern, pattern_m in graphs:
                    hyper_side = _same_hyper_answer(
                        host.n, host.sorted_edges(), pattern.n, pattern.sorted_edges()
                    )
                    matrix_side = _same_matrix_answer(
                        host_m.extents, host_m.ones, pattern_m.extents, pattern_m.ones
                    )
                    assert hyper_side == matrix_side

    def test_prepared_forms_match_the_public_engines_and_the_references(self):
        # the sweep's route: both search steps on each graph's prepared
        # forms, for every pair at part sizes 1 and 2 and sampled pairs at
        # part size 3
        rng = random.Random("engine-diff/prepared-forms")
        pairs = []
        for part_size in (1, 2):
            graphs = _all_bipartite(part_size)
            pairs += [(host, pattern) for host in graphs for pattern in graphs]
        graphs = _all_bipartite(3)
        pairs += [(rng.choice(graphs), rng.choice(graphs)) for _ in range(2000)]
        answers = set()
        for host, pattern in pairs:
            parts = PartsSpec.equal(2, host.n // 2)
            host_m = associated_matrix(host, parts)
            pattern_m = associated_matrix(pattern, parts)
            host_matrix, host_hyper, _ = containment._partite_forms(host, 2)
            pattern_matrix, _, pattern_hyper = containment._partite_forms(pattern, 2)
            hyper = containment._hyper_embedding_search(host_hyper, pattern_hyper)
            # validation makes the two shapes equal, so the sweep runs the
            # matrix search, which tests the weights, on every pair
            placements = containment._placement_table(host_matrix[0][1:], host_matrix[0][1:])
            matrix = containment._matrix_embedding_search(host_matrix, pattern_matrix, placements)
            assert (hyper is not None) == (hypergraph_contains(host, pattern) is not None)
            assert (matrix is not None) == (matrix_contains(host_m, pattern_m) is not None)
            assert hyper == reference_hyper_embedding(
                host.n, host.sorted_edges(), pattern.n, pattern.sorted_edges()
            )
            assert matrix == reference_matrix_embedding(
                host_m.extents, host_m.ones, pattern_m.extents, pattern_m.ones
            )
            answers.add(hyper is not None)
        assert answers == {False, True}


def _random_edges(rng, n, count, max_size, min_size=1):
    universe = [
        e
        for size in range(min_size, min(max_size, n) + 1)
        for e in combinations(range(1, n + 1), size)
    ]
    return sorted(rng.sample(universe, min(count, len(universe))))
