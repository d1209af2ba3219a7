"""Core object construction, predicates, and their invariants."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternex import (
    BinaryMatrix,
    InputError,
    PartsSpec,
    PermutationSpec,
    associated_hypergraph,
    associated_matrix,
    d_permutation_matrix,
    is_d_partite,
    is_d_permutation_hypergraph,
    make_hypergraph,
    make_matrix,
)


@st.composite
def matrices(draw, max_d=3, max_extent=3):
    d = draw(st.integers(2, max_d))
    extents = tuple(draw(st.integers(1, max_extent)) for _ in range(d))
    cells = [tuple(c) for c in product(*(range(1, n + 1) for n in extents))]
    ones = draw(st.frozensets(st.sampled_from(cells)))
    return BinaryMatrix(extents, ones)


@st.composite
def permutation_specs(draw, max_k=4, max_d=3):
    k = draw(st.integers(1, max_k))
    d = draw(st.integers(2, max_d))
    perms = tuple(tuple(draw(st.permutations(range(1, k + 1)))) for _ in range(d - 1))
    return PermutationSpec(k, perms)


class TestMakeMatrix:
    def test_identity(self):
        m = make_matrix([2, 2], [(1, 1), (2, 2)])
        assert m.extents == (2, 2)
        assert m.ones == {(1, 1), (2, 2)}
        assert m.weight == 2

    def test_out_of_range(self):
        with pytest.raises(InputError):
            make_matrix([2, 2], [(3, 1)])

    def test_empty_3d(self):
        m = make_matrix([2, 2, 2], [])
        assert m.d == 3
        assert m.weight == 0

    def test_duplicate_rejected(self):
        with pytest.raises(InputError):
            make_matrix([2, 2], [(1, 1), (1, 1)])

    def test_d_below_two_rejected(self):
        with pytest.raises(InputError):
            make_matrix([3], [(1,)])


class TestMakeHypergraph:
    def test_basic(self):
        h = make_hypergraph(4, [(1, 3), (2, 4)])
        assert h.weight == 4
        assert h.sorted_edges() == [(1, 3), (2, 4)]

    def test_canonicalizes_vertex_order(self):
        h = make_hypergraph(3, [(3, 1)])
        assert h.sorted_edges() == [(1, 3)]

    def test_rejects_empty_edge(self):
        with pytest.raises(InputError):
            make_hypergraph(3, [()])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InputError):
            make_hypergraph(3, [(1, 2), (2, 1)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InputError):
            make_hypergraph(3, [(1, 1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            make_hypergraph(2, [(1, 3)])


class TestPermutationMatrices:
    def test_identity_length_2(self):
        m = d_permutation_matrix(PermutationSpec(2, ((1, 2),)))
        assert m.ones == {(1, 1), (2, 2)}

    def test_cycle_length_3(self):
        m = d_permutation_matrix(PermutationSpec(3, ((2, 3, 1),)))
        assert m.ones == {(1, 2), (2, 3), (3, 1)}

    def test_diagonal_3d(self):
        m = d_permutation_matrix(PermutationSpec(2, ((1, 2), (1, 2))))
        assert m.ones == {(1, 1, 1), (2, 2, 2)}
        assert m.extents == (2, 2, 2)

    def test_non_bijective_rejected(self):
        with pytest.raises(InputError):
            PermutationSpec(2, ((1, 1),))

    @settings(max_examples=40, deadline=None)
    @given(permutation_specs())
    def test_every_cross_section_has_one_entry(self, spec):
        m = d_permutation_matrix(spec)
        for axis in range(1, m.d + 1):
            for value in range(1, spec.k + 1):
                assert sum(1 for c in m.ones if c[axis - 1] == value) == 1


class TestAssociation:
    def test_identity_2x2(self):
        h, parts = associated_hypergraph(make_matrix([2, 2], [(1, 1), (2, 2)]))
        assert h.n == 4
        assert h.edges == {(1, 3), (2, 4)}
        assert parts.boundaries == (0, 2, 4)

    def test_zero_matrix(self):
        h, _ = associated_hypergraph(make_matrix([3, 2], []))
        assert h.n == 5
        assert not h.edges

    def test_diagonal_3d(self):
        m = d_permutation_matrix(PermutationSpec(2, ((1, 2), (1, 2))))
        h, _ = associated_hypergraph(m)
        assert h.n == 6
        assert h.edges == {(1, 3, 5), (2, 4, 6)}

    def test_inverse_examples(self):
        parts = PartsSpec((0, 2, 4))
        m = associated_matrix(make_hypergraph(4, [(1, 3), (2, 4)]), parts)
        assert m == make_matrix([2, 2], [(1, 1), (2, 2)])
        assert associated_matrix(make_hypergraph(4, []), parts).weight == 0

    def test_inverse_rejects_same_part_edge(self):
        with pytest.raises(InputError):
            associated_matrix(make_hypergraph(4, [(1, 2)]), PartsSpec((0, 2, 4)))

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_round_trip(self, m):
        h, parts = associated_hypergraph(m)
        assert associated_matrix(h, parts) == m

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_weight_identity(self, m):
        h, _ = associated_hypergraph(m)
        assert h.weight == m.d * m.weight
        assert h.edge_count == m.weight


class TestPartiteness:
    def test_permutation_hypergraph_detection(self):
        assert is_d_permutation_hypergraph(make_hypergraph(4, [(1, 3), (2, 4)])) == 2
        assert is_d_permutation_hypergraph(make_hypergraph(4, [(1, 3)])) is None
        assert is_d_permutation_hypergraph(make_hypergraph(4, [])) is None
        # one vertex in two edges
        assert is_d_permutation_hypergraph(make_hypergraph(4, [(1, 3), (1, 4)])) is None

    def test_is_d_partite(self):
        h = make_hypergraph(4, [(1, 3), (2, 4)])
        assert is_d_partite(h, PartsSpec((0, 2, 4)))
        assert not is_d_partite(make_hypergraph(4, [(1, 2)]), PartsSpec((0, 2, 4)))

    @settings(max_examples=40, deadline=None)
    @given(permutation_specs())
    def test_associated_permutation_matrix_is_accepted(self, spec):
        h, _ = associated_hypergraph(d_permutation_matrix(spec))
        assert is_d_permutation_hypergraph(h) == spec.k


class TestPartsSpec:
    def test_validation(self):
        with pytest.raises(InputError):
            PartsSpec((1, 2))
        with pytest.raises(InputError):
            PartsSpec((0, 2, 2))
        spec = PartsSpec((0, 2, 5))
        assert spec.sizes == (2, 3)
        assert spec.part_of(3) == 2
        assert spec.part_of(2) == 1
