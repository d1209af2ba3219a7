"""Core object construction, predicates, and their invariants."""

import math
import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patternex import (
    BinaryMatrix,
    InputError,
    OrderedHypergraph,
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
from patternex import structures

from oracles import is_matrix, is_ordered_hypergraph

HUGE = 10**5000


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

    def test_a_non_uniform_input_is_no_permutation_hypergraph(self):
        assert is_d_permutation_hypergraph(make_hypergraph(4, [(1, 3), (2,)])) is None

    @pytest.mark.parametrize(
        "refused,message",
        [
            (
                lambda: is_d_partite(make_hypergraph(3, []), PartsSpec.equal(2, 2)),
                "parts cover 4 vertices but hypergraph has 3",
            ),
            (
                lambda: associated_matrix(make_hypergraph(3, []), PartsSpec.equal(2, 2)),
                "parts cover 4 vertices but hypergraph has 3",
            ),
            (
                lambda: associated_matrix(make_hypergraph(2, [(1, 2)]), PartsSpec.equal(1, 2)),
                "associated matrix needs at least 2 parts",
            ),
            (
                lambda: associated_matrix(make_hypergraph(4, [(1, 3), (2,)]), PartsSpec.equal(2, 2)),
                r"edge \(2,\) has size 1, expected 2-uniform",
            ),
        ],
        ids=["partite_size", "matrix_size", "one_part", "non_uniform"],
    )
    def test_refusals(self, refused, message):
        with pytest.raises(InputError, match=message):
            refused()

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

    @pytest.mark.parametrize("vertex", [0, 6])
    def test_part_of_a_vertex_out_of_range(self, vertex):
        with pytest.raises(InputError, match=f"vertex {vertex} out of range for n=5"):
            PartsSpec((0, 2, 5)).part_of(vertex)


class TestRecordArguments:
    """The one record constructor binds arguments as a signature of the
    record's fields would, and checks before it returns."""

    ONES = frozenset({(1, 1)})

    @pytest.mark.parametrize(
        "args,kwargs,message",
        [
            (((2, 2),), {}, "missing argument 'ones'"),
            ((), {"ones": ONES}, "missing argument 'extents'"),
            (((2, 2), ONES), {"ones": ONES}, "got multiple values for argument 'ones'"),
            (((2, 2),), {"ones": ONES, "extents": (2, 2)}, "got multiple values for argument 'extents'"),
            (((2, 2), ONES), {"weight": 1}, "got an unexpected keyword argument 'weight'"),
            (((2, 2), ONES, 1), {}, "takes 2 arguments but 3 were given"),
        ],
        ids=["missing-last", "missing-first", "repeated", "repeated-positional", "unknown", "too-many"],
    )
    def test_a_bad_argument_list_raises_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError) as info:
            BinaryMatrix(*args, **kwargs)
        assert str(info.value) == f"BinaryMatrix() {message}"

    def test_positional_keyword_and_mixed_calls_build_the_same_record(self):
        built = [
            BinaryMatrix((2, 2), self.ONES),
            BinaryMatrix((2, 2), ones=self.ONES),
            BinaryMatrix(ones=self.ONES, extents=(2, 2)),
        ]
        assert all(m == built[0] and m.extents == (2, 2) and m.ones == self.ONES for m in built)

    def test_every_call_form_runs_the_check(self):
        for build in (
            lambda: PartsSpec((0, 2, 2)),
            lambda: PartsSpec(boundaries=(0, 2, 2)),
            lambda: BinaryMatrix(ones=frozenset({(1, 3)}), extents=(2, 2)),
        ):
            with pytest.raises(InputError):
                build()


class TestConstructionCheck:
    """Construction accepts exactly the objects of the definitions, whether
    the shape's valid cells or edges are cached or the per-entry check
    decides, and raises the per-entry check's text."""

    @staticmethod
    def _entry(rng: random.Random, n) -> object:
        """A vertex or coordinate value for extent or vertex count n: in
        1..n mostly, else 0, n + 1 or a float, whole or not."""
        top = max(1, int(n))
        roll = rng.random()
        if roll < 0.9:
            return rng.randint(1, top)
        if roll < 0.93:
            return 0
        if roll < 0.96:
            return top + 1
        return rng.randint(1, top) + rng.choice((0.0, 0.5))

    def _matrix_case(self, rng):
        d = rng.choice((1, 2, 2, 2, 3, 3, 4))
        kind = rng.choice(("cached", "cached", "cached", "large", "float"))
        if kind == "large":
            extents = [rng.randint(33, 60) for _ in range(d)]
        else:
            extents = [0 if rng.random() < 0.03 else rng.randint(1, 4) for _ in range(d)]
            if kind == "float":
                extents[0] = rng.choice((3.0, 2.5))
        ones = set()
        for _ in range(rng.randint(0, 6)):
            length = d if rng.random() < 0.95 else d + rng.choice((-1, 1))
            ones.add(tuple(self._entry(rng, extents[i % d]) for i in range(length)))
        return tuple(extents), frozenset(ones)

    def _hypergraph_case(self, rng):
        kind = rng.choice(("cached", "cached", "cached", "large", "float"))
        if kind == "float":
            n = 5.0
        else:
            n = rng.randint(46, 60) if kind == "large" else rng.randint(0, 7)
        edges = set()
        for _ in range(rng.randint(0, 6)):
            size = rng.choice((0, 1, 2, 2, 3, 3, 4)) if rng.random() < 0.1 else rng.randint(1, 3)
            vertices = list(range(1, int(n) + 1))
            if size <= len(vertices) and rng.random() < 0.85:
                edge = sorted(rng.sample(vertices, size))
                if edge and kind == "float" and rng.random() < 0.3:
                    edge[-1] += rng.choice((0.0, 0.5))
            else:
                edge = [self._entry(rng, n) for _ in range(size)]
                if rng.random() < 0.5:
                    edge.sort()
            edges.add(tuple(edge))
        return n, frozenset(edges)

    def test_seeded_objects_are_accepted_exactly_by_the_definitions(self):
        rng = random.Random(20181)
        cells_before = structures._valid_cells.cache_info().hits
        edges_before = structures._valid_edges.cache_info().hits
        verdicts = []
        for _ in range(3000):
            extents, ones = self._matrix_case(rng)
            try:
                BinaryMatrix(extents, ones)
                accepted = True
            except InputError:
                accepted = False
            assert accepted == is_matrix(extents, ones), (extents, ones)
            n, edges = self._hypergraph_case(rng)
            try:
                OrderedHypergraph(n, edges)
                accepted_h = True
            except InputError:
                accepted_h = False
            assert accepted_h == is_ordered_hypergraph(n, edges), (n, edges)
            verdicts += [accepted, accepted_h]
        # both verdicts are common, and both caches answered
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.9
        assert structures._valid_cells.cache_info().hits > cells_before
        assert structures._valid_edges.cache_info().hits > edges_before

    @pytest.mark.parametrize(
        "extents, ones, message",
        [
            ((2, 2), {(1, 3)}, "coordinate (1, 3) out of range on axis 2 (extent 2)"),
            ((60, 60), {(61, 1)}, "coordinate (61, 1) out of range on axis 1 (extent 60)"),
            ((2, 2), {(1,)}, "coordinate (1,) has length 1, expected 2"),
            ((2, 0), set(), "extents must be positive, got (2, 0)"),
            ((3,), {(1,)}, "matrix dimension must be >= 2, got 1"),
        ],
    )
    def test_matrix_error_text(self, extents, ones, message):
        BinaryMatrix((2, 2), frozenset({(1, 1)}))  # caches the 2x2 cells
        with pytest.raises(InputError) as info:
            BinaryMatrix(extents, frozenset(ones))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, {()}, "empty edges are not allowed"),
            (3, {(2, 1)}, "edge (2, 1) is not strictly increasing"),
            (3, {(1, 4)}, "edge (1, 4) out of range for n=3"),
            (2, {(1, 2, 3)}, "edge (1, 2, 3) out of range for n=2"),
            (-1, set(), "vertex count must be nonnegative, got -1"),
        ],
    )
    def test_hypergraph_error_text(self, n, edges, message):
        OrderedHypergraph(3, frozenset({(1, 2)}))  # caches the pairs on [3]
        with pytest.raises(InputError) as info:
            OrderedHypergraph(n, frozenset(edges))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda: BinaryMatrix((HUGE, 0), frozenset()),
                "extents must be positive, got (~10^5000, 0)",
            ),
            (
                lambda: BinaryMatrix((2, 2), frozenset({(HUGE, 1)})),
                "coordinate (~10^5000, 1) out of range on axis 1 (extent 2)",
            ),
            (
                lambda: BinaryMatrix((2, HUGE), frozenset({(1, 0)})),
                "coordinate (1, 0) out of range on axis 2 (extent ~10^5000)",
            ),
            (
                lambda: BinaryMatrix((2, 2), frozenset({(HUGE,)})),
                "coordinate (~10^5000,) has length 1, expected 2",
            ),
            (
                lambda: OrderedHypergraph(3, frozenset({(HUGE, 1)})),
                "edge (~10^5000, 1) is not strictly increasing",
            ),
            (
                lambda: OrderedHypergraph(HUGE, frozenset({(0, 1)})),
                "edge (0, 1) out of range for n=~10^5000",
            ),
            (lambda: make_matrix((2, 2), [(HUGE, 1)] * 2), "duplicate coordinate (~10^5000, 1)"),
            (
                lambda: make_hypergraph(3, [(HUGE, HUGE)]),
                "edge [~10^5000, ~10^5000] repeats a vertex",
            ),
            (lambda: make_hypergraph(3, [(HUGE, 1), (1, HUGE)]), "duplicate edge (1, ~10^5000)"),
            (
                lambda: PartsSpec((0, HUGE, 1)),
                "boundaries must be strictly increasing, got (0, ~10^5000, 1)",
            ),
            (lambda: PartsSpec((0, 2)).part_of(HUGE), "vertex ~10^5000 out of range for n=2"),
            (lambda: PermutationSpec(HUGE, ((1,),)), "(1,) is not a permutation of [~10^5000]"),
            (lambda: PermutationSpec(0.5, ((1,),)), "length must be positive, got 0.5"),
            (
                lambda: OrderedHypergraph(-0.5, frozenset()),
                "vertex count must be nonnegative, got -0.5",
            ),
            (
                lambda: is_d_partite(OrderedHypergraph(2, frozenset()), PartsSpec((0, HUGE))),
                "parts cover ~10^5000 vertices but hypergraph has 2",
            ),
        ],
        ids=[
            "extents", "coordinate", "extent", "length", "edge-order", "edge-range",
            "duplicate-coordinate", "repeated-vertex", "duplicate-edge", "boundaries",
            "part-of", "permutation", "float-length", "float-n", "is-d-partite",
        ],
    )
    def test_a_huge_int_or_a_float_is_refused_with_the_package_error(self, build, message):
        # str of an int past 4,300 digits raises ValueError, and int_text of
        # a float AttributeError; value_text writes ~10^k and the float
        with pytest.raises(InputError) as info:
            build()
        assert str(info.value) == message

    def test_a_known_edge_shape_is_counted_once(self, monkeypatch):
        OrderedHypergraph(9, frozenset({(1, 2)}))
        counts = []
        count = structures.binomial_product
        monkeypatch.setattr(
            structures, "binomial_product", lambda *args: counts.append(args) or count(*args)
        )
        assert OrderedHypergraph(9, frozenset({(3, 9), (1, 4)})).edge_count == 2
        assert counts == []

    def test_each_cache_stays_at_its_size_past_its_size_in_shapes(self):
        for k in range(1, 2 * structures._valid_cells.cache_info().maxsize + 1):
            BinaryMatrix((2, k), frozenset({(1, 1)}))
            OrderedHypergraph(k, frozenset({(1,)}))
        for cache in (structures._valid_cells, structures._valid_edges):
            info = cache.cache_info()
            assert info.currsize == info.maxsize

    def test_large_shapes_build_no_cached_set(self):
        # 2,000,000 ints of 1000x1000 cells, and C(100000, 50000) edges;
        # the bound is decided after one small multiplication
        diagonal = frozenset((i, i) for i in range(1, 1001))
        half = frozenset({tuple(range(1, 50_001))})
        misses = structures._valid_cells.cache_info().misses
        start = time.perf_counter()
        assert BinaryMatrix((1000, 1000), diagonal).weight == 1000
        assert OrderedHypergraph(100_000, half).weight == 50_000
        assert time.perf_counter() - start < 0.5
        assert structures._valid_cells.cache_info().misses == misses
        # the edge shape's count is kept with it, as None in place of a set
        assert structures._valid_edges(100_000, frozenset({50_000})) is None


class TestBinomialProduct:
    """The one count every size limit is checked on: exact up to the cap,
    a lower bound past it, and 0 when some k > n."""

    def test_exact_at_the_cap_and_a_lower_bound_just_below_it(self):
        # C(53, 2)^2 = 1,898,884, the most windows a GeneratorConfig accepts
        pairs = ((53, 2), (53, 2))
        assert structures.binomial_product(pairs, 1_898_884) == 1_898_884
        below = structures.binomial_product(pairs, 1_898_883)
        assert 1_898_883 < below <= 1_898_884

    def test_agrees_with_math_comb(self):
        rng = random.Random(36)
        for _ in range(500):
            pairs = tuple(
                (n, rng.randint(0, n + 1))
                for n in (rng.randint(0, 12) for _ in range(rng.randint(0, 3)))
            )
            cap = rng.randint(0, 5000)
            exact = math.prod(math.comb(n, k) for n, k in pairs)
            got = structures.binomial_product(pairs, cap)
            if exact <= cap:
                assert got == exact, (pairs, cap)
            else:
                assert cap < got <= min(exact, max(1, cap * (cap + 1))), (pairs, cap)

    def test_a_huge_binomial_stops_once_past_the_cap(self):
        # C(10^6, 5 * 10^5) is 10^6 bits long; math.comb took 6 s on it
        pairs = ((10**6, 5 * 10**5),)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            count = structures.binomial_product(pairs, 10**8)
            times.append(time.perf_counter() - start)
        assert 10**8 < count < 10**18
        assert min(times) < 1e-3

    def test_a_factor_past_the_cap_counts_as_one_past_it(self):
        # C(10^5000, 1) was the count past the cap, and printing it in a
        # refusal raised ValueError; the cap keeps the count short
        assert structures.binomial_product(((10**5000, 1),), 10) == 11
        assert structures.binomial_product(((3, 1), (10**5000, 2)), 10) == 33
        # a factor up to cap + 1 is exact, as before
        assert structures.binomial_product(((11, 1), (5, 2)), 10) == 11
        assert structures.binomial_product(((400_000, 1), (400_000, 2)), 2_000_000) == 400_000**2

    def test_zero_when_some_k_exceeds_n(self):
        assert structures.binomial_product(((3, 4),), 10) == 0
        # a later factor that cannot fit wins over an earlier one past the cap
        assert structures.binomial_product(((10**6, 5 * 10**5), (3, 4)), 100) == 0
        assert structures.binomial_product(((5, 5), (0, 0)), 0) == 1
