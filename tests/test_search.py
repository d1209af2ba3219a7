"""Solvers checked against enumeration oracles and their frozen values."""

import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from patternex import (
    BinaryMatrix,
    CapacityError,
    ExtremalTable,
    InputError,
    PostconditionError,
    TableRow,
    corner_pad,
    count_avoiders,
    estimate_limit,
    ex_matrix,
    exe_hyper,
    exi_hyper,
    f_multi,
    gex_graph,
    hypergraph_contains,
    make_hypergraph,
    make_matrix,
    matrix_contains,
    permutation_matrix,
    table_to_csv,
)
from patternex import search
from patternex.search import _solve_max_weight

from oracles import (
    all_matrices,
    brute_canonical_witness,
    brute_count_avoiders,
    brute_gex,
    brute_hyper_extremal,
    brute_max_weight,
    engine_count_avoiders,
    engine_max_hyper,
    hyper_candidates,
    trivial_bound_max_weight,
)

IDENTITY2 = permutation_matrix((1, 2))
ALL_ONES_2 = make_matrix([2, 2], [(1, 1), (1, 2), (2, 1), (2, 2)])
SINGLE_EDGE = make_hypergraph(2, [(1, 2)])
IDENTITY_HYPERGRAPH = make_hypergraph(4, [(1, 3), (2, 4)])


class TestExMatrix:
    def test_single_entry_pattern_forces_zero(self):
        single = make_matrix([1, 1], [(1, 1)])
        for n in (1, 2, 3):
            assert ex_matrix(single, n).value == 0

    def test_identity_n4(self):
        assert ex_matrix(IDENTITY2, 4).value == 7

    def test_identity_n4_against_full_enumeration(self):
        # 2^16 hosts; the largest size the brute oracle can cover directly
        assert brute_max_weight(IDENTITY2, (4, 4)) == 7

    def test_all_ones_n3(self):
        assert ex_matrix(ALL_ONES_2, 3).value == 6

    def test_weight_zero_is_an_error(self):
        with pytest.raises(InputError):
            ex_matrix(make_matrix([2, 2], []), 3)

    def test_oversized_pattern_gives_full_matrix(self):
        # a weight-0 pattern that does not fit is avoided, not an error
        for big in (make_matrix([4, 4], [(4, 1)]), make_matrix([3, 3], [])):
            cert = ex_matrix(big, 2)
            assert cert.value == 4

    def test_capacity_error(self):
        # the pattern never fits, so the value is every cell: 8^2 = 64 cells
        # are allowed, 9^2 = 81 are not
        never_fits = make_matrix([9, 9], [(1, 1)])
        assert ex_matrix(never_fits, 8).value == 64
        with pytest.raises(CapacityError):
            ex_matrix(never_fits, 9)
        with pytest.raises(CapacityError):
            ex_matrix(IDENTITY2, 9)

    def test_certificate_is_verified(self):
        cert = ex_matrix(IDENTITY2, 3)
        assert cert.verified
        assert cert.witness.weight == cert.value
        assert matrix_contains(cert.witness, IDENTITY2) is None

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equivalence_weight_le_3(self, n):
        # all 2x2 and a few ragged patterns of weight <= 3
        patterns = [
            m
            for extents in [(2, 2), (1, 3), (3, 2)]
            for m in all_matrices(extents)
            if 1 <= m.weight <= 3
        ]
        for pattern in patterns:
            cert = ex_matrix(pattern, n)
            expected = brute_canonical_witness(pattern, (n, n))
            assert cert.value == expected.weight
            assert cert.witness == expected

    def test_monotone_in_n(self):
        values = [ex_matrix(IDENTITY2, n).value for n in range(1, 6)]
        assert values == sorted(values)

    def test_superpattern_has_larger_value(self):
        padded = corner_pad(IDENTITY2)
        for n in range(1, 5):
            assert ex_matrix(padded, n).value >= ex_matrix(IDENTITY2, n).value

    def test_deterministic_witness(self):
        a = ex_matrix(IDENTITY2, 4)
        b = ex_matrix(IDENTITY2, 4)
        assert a == b


class TestPublishedValues:
    """Extremal values typed in from the literature, not from this solver."""

    @pytest.mark.parametrize("k, n_max", [(2, 7), (3, 5)])
    def test_identity_furedi_hajnal(self, k, n_max):
        # Furedi & Hajnal 1992: ex(I_k, n) = (k - 1)(2n - k + 1) for n >= k - 1
        identity = permutation_matrix(tuple(range(1, k + 1)))
        for n in range(k - 1, n_max + 1):
            assert ex_matrix(identity, n).value == (k - 1) * (2 * n - k + 1)

    @pytest.mark.parametrize(
        "d, k, values",
        [(3, 2, [1, 7, 19]), (3, 3, [1, 8, 26, 56]), (4, 2, [1, 15])],
        ids=["3d-length-2", "3d-length-3", "4d-length-2"],
    )
    def test_d_dimensional_identity(self, d, k, values):
        # f(I_k^d, n) = n^d - (n - k + 1)^d for n >= k - 1.  The cells with
        # some coordinate below k avoid I_k^d, since the k-th cell of a chain
        # has every coordinate at least k; the diagonal lines partition
        # [n]^d, and an avoider holds at most k - 1 cells of each line.
        # Values are listed from n = 1; below k - 1 every cell is free.
        identity = make_matrix([k] * d, [(i,) * d for i in range(1, k + 1)])
        for n, value in enumerate(values, start=1):
            assert value == n**d - max(n - k + 1, 0) ** d
            assert f_multi(identity, d, n).value == value

    def test_all_ones_zarankiewicz(self):
        # Zarankiewicz numbers z(n; 2) (Guy; OEIS A001197)
        assert [ex_matrix(ALL_ONES_2, n).value for n in range(1, 6)] == [1, 3, 6, 9, 12]

    @pytest.mark.parametrize("edges", [[(1, 3), (2, 4)], [(1, 4), (2, 3)]])
    def test_crossing_and_nesting_matchings(self, edges):
        # graphs with no two crossing (nesting) edges are the outerplanar
        # (1-queue) ordered graphs, which have at most 2n - 3 edges
        # (Heath & Rosenberg 1992)
        matching = make_hypergraph(4, edges)
        for n in range(2, 9):
            assert gex_graph(matching, n).value == 2 * n - 3

    def test_separated_matching(self):
        # in an avoider every two edges overlap as closed intervals, so all
        # of them share a point p (Helly's theorem on the line); the edges
        # a < b with a <= p <= b number p(n + 1 - p) - 1, greatest at
        # p = (n + 1) / 2
        separated = make_hypergraph(4, [(1, 2), (3, 4)])
        for n in range(1, 9):
            assert gex_graph(separated, n).value == (n + 1) ** 2 // 4 - 1


class TestSuffixBound:
    @pytest.mark.parametrize("d, n_max, count", [(2, 5, 60), (3, 3, 20), (4, 2, 40)])
    def test_same_value_and_witness_as_trivial_bound(self, d, n_max, count):
        # the suffix bound prunes only nodes that cannot strictly beat the
        # incumbent, so the first optimal leaf, the witness, is unchanged
        rng = random.Random(d)
        for _ in range(count):
            extents = tuple(rng.randint(1, 3) for _ in range(d))
            cells = list(product(*(range(1, k + 1) for k in extents)))
            ones = rng.sample(cells, rng.randint(1, min(4, len(cells))))
            pattern = BinaryMatrix(extents, frozenset(ones))
            n = rng.randint(1, n_max)
            assert _solve_max_weight(pattern, n) == trivial_bound_max_weight(pattern, n)

    @pytest.mark.parametrize(
        "pattern, n",
        [
            (permutation_matrix((1, 2, 3)), 5),
            (make_matrix([2, 3], [(1, 1), (2, 2), (2, 3)]), 5),
            (make_matrix([2, 3], [(1, 1), (1, 3), (2, 2)]), 5),
            (permutation_matrix((2, 1)), 6),
        ],
        ids=["P123", "Q23", "Z23", "21"],
    )
    def test_same_witness_where_unused_decisions_are_included(self, pattern, n):
        # benchmark rows with nodes whose decision no live copy uses; the
        # driver includes such a decision without opening the exclude
        # branch, whose leaves are each worth less than the include branch's
        assert _solve_max_weight(pattern, n) == trivial_bound_max_weight(pattern, n)


L3 = make_matrix([2, 2], [(1, 1), (2, 1), (2, 2)])
Z23 = make_matrix([2, 3], [(1, 1), (1, 3), (2, 2)])
Q23 = make_matrix([2, 3], [(1, 1), (2, 2), (2, 3)])
COLUMN3 = make_matrix([3, 1], [(1, 1), (2, 1), (3, 1)])
# rows with at least RANKED_COPIES copies: C(5, 2)^2 = C(5, 2) C(5, 3) = 100
# and C(6, 2)^2 = 225
RANKED_ROWS = [(L3, 5, 4), (Z23, 5, 4), (Q23, 5, 8), (IDENTITY2, 6, 2)]


class TestImageRanking:
    """Rows above the copy gate take their value from the image with the
    fewest search calls one size down, and their witness from the
    first-leaf search over the pattern's own copies."""

    @pytest.mark.parametrize(
        "pattern, n, images", RANKED_ROWS, ids=["L3", "Z23", "Q23", "I2"]
    )
    def test_every_image_has_the_same_value(self, pattern, n, images):
        found = search._matrix_images(pattern)
        assert found[0] == pattern and len(set(found)) == len(found) == images
        assert len({ex_matrix(image, n).value for image in found}) == 1

    @pytest.mark.parametrize(
        "pattern, n", [row[:2] for row in RANKED_ROWS], ids=["L3", "Z23", "Q23", "I2"]
    )
    def test_witness_of_an_image_that_is_not_the_cheapest(self, pattern, n):
        # the first image whose value comes from another image: its witness
        # is found by the first-leaf search, not by the value search
        image = next(
            im for im in search._matrix_images(pattern) if search._cheapest_image(im, n) != im
        )
        assert _solve_max_weight(image, n) == trivial_bound_max_weight(image, n)

    def test_column_takes_its_value_from_the_row(self):
        # the 3x1 column costs about 25 s at n = 6 as given and milliseconds
        # as its transpose; the witness is the first optimal host of the
        # row-major include-first order, rows 1 and 2 full
        assert search._cheapest_image(COLUMN3, 6) == make_matrix([1, 3], [(1, 1), (1, 2), (1, 3)])
        start = time.perf_counter()
        cert = ex_matrix(COLUMN3, 6)
        assert time.perf_counter() - start < 5
        assert cert.value == 12
        assert cert.witness.ones == frozenset(product((1, 2), range(1, 7)))

    def test_rows_below_the_gate_take_the_pattern_itself(self):
        # C(4, 2) C(4, 3) = 24 and C(5, 3) C(5, 1) = 50 copies
        assert search._cheapest_image(Z23, 4) is Z23
        assert search._cheapest_image(COLUMN3, 5) is COLUMN3

    def test_a_slow_first_leaf_search_keeps_the_pattern_itself(self):
        # at n = 5 the pattern's value search makes 20,485 calls and an
        # image's 4,367, but the first-leaf search over the pattern's copies
        # needs 22,141 more; at n = 6 the first-leaf search would take
        # several seconds and the pattern's own value search takes 0.7 s
        pattern = make_matrix([2, 3], [(1, 1), (1, 3), (2, 2), (2, 3)])
        gain = [1] * 25
        own = search._branch_and_bound(gain, search._matrix_copies(pattern, 5), sys.maxsize)[2]
        calls = [
            search._branch_and_bound(gain, search._matrix_copies(image, 5), sys.maxsize)[2]
            for image in search._matrix_images(pattern)
        ]
        assert min(calls) < own == calls[0]
        assert search._cheapest_image(pattern, 6) is pattern

    @pytest.mark.parametrize("pattern", [L3, Z23], ids=["L3", "Z23"])
    @pytest.mark.parametrize("sides", [(5,), (4, 5)], ids=["row", "row_and_ranking"])
    def test_a_value_one_too_high_fails_the_postcondition(self, monkeypatch, pattern, sides):
        # the value search answers one more than the truth at side 5, and
        # in the second case also while the images are ranked at side 4.
        # No host of that weight avoids the pattern, so whichever search
        # finds the host cannot certify it: the first-leaf search when L3
        # takes its value from another image, the value search itself when
        # the pattern is searched as given
        solve = search._branch_and_bound

        def one_too_high(gain, *args):
            value, chosen, calls = solve(gain, *args)
            return value + (math.isqrt(len(gain)) in sides), chosen, calls

        monkeypatch.setattr(search, "_branch_and_bound", one_too_high)
        with pytest.raises(PostconditionError):
            ex_matrix(pattern, 5)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_leaf_is_the_value_search_set(self, seed):
        # random gains and copies, as in the hypergraph solvers' weight mode
        rng = random.Random(seed)
        for _ in range(200):
            total = rng.randint(1, 12)
            gain = [rng.randint(1, 3) for _ in range(total)]
            copies = {rng.randint(1, (1 << total) - 1) for _ in range(rng.randint(1, 8))}
            value, chosen, _ = search._branch_and_bound(gain, copies)
            assert search._first_leaf(gain, copies, value) == chosen
            with pytest.raises(PostconditionError):
                search._first_leaf(gain, copies, value + 1)


def _random_hypergraph(rng, pn, sizes, most):
    pool = [e for size in sizes for e in combinations(range(1, pn + 1), size)]
    return make_hypergraph(pn, rng.sample(pool, min(rng.randint(0, most), len(pool))))


def _isolated(pattern):
    return set(range(1, pattern.n + 1)) - {v for e in pattern.edges for v in e}


class TestCopyIndex:
    """The copy-index solvers against the engine-based references, which
    run a containment search at every node and share no code with them."""

    @pytest.mark.parametrize("seed", range(4))
    def test_exe_exi_and_count_match_the_engine(self, seed):
        rng = random.Random(seed)
        mixed = isolated = oversized = 0
        for _ in range(40):
            pn = rng.randint(1, 4)
            pattern = _random_hypergraph(rng, pn, range(1, 4), 4)
            n = rng.randint(pn - 1, 5)
            cap = rng.randint(1, min(n, 2 if n == 5 else 3)) if n else 1
            candidates = hyper_candidates(n, cap)  # at most 15
            mixed += len({len(e) for e in pattern.edges}) > 1
            isolated += bool(_isolated(pattern))
            oversized += pattern.n > n
            expected = engine_count_avoiders(n, candidates, pattern)
            assert count_avoiders(pattern, n, edge_size_cap=cap) == expected
            if n == 0:
                continue
            for mode, solver in (("edges", exe_hyper), ("weight", exi_hyper)):
                if not pattern.edges and pattern.n <= n:
                    with pytest.raises(InputError):
                        solver(pattern, n, edge_cap=cap)
                    continue
                value, edges = engine_max_hyper(n, candidates, pattern, mode)
                cert = solver(pattern, n, edge_cap=cap)
                assert (cert.value, cert.witness.edges) == (value, frozenset(edges))
        assert mixed and isolated and oversized

    @pytest.mark.parametrize("seed", range(2))
    def test_gex_matches_the_engine(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(30):
            pn = rng.randint(2, 6)
            pattern = _random_hypergraph(rng, pn, (2,), 4)
            if not pattern.edges:
                continue
            n = rng.randint(pn - 1, 6)
            pairs = list(combinations(range(1, n + 1), 2))
            value, edges = engine_max_hyper(n, pairs, pattern, "edges")
            cert = gex_graph(pattern, n)
            assert (cert.value, cert.witness.edges) == (value, frozenset(edges))


class TestFMulti:
    def test_single_entry_3d(self):
        single = make_matrix([1, 1, 1], [(1, 1, 1)])
        assert f_multi(single, 3, 2).value == 0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            f_multi(IDENTITY2, 3, 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_oracle_witness_3d(self, n):
        # all 2x2x2 patterns of weight <= 2 and a few ragged ones of weight <= 3
        patterns = [
            m
            for extents, top in [((2, 2, 2), 2), ((1, 2, 2), 3), ((2, 1, 3), 3)]
            for m in all_matrices(extents)
            if 1 <= m.weight <= top
        ]
        for pattern in patterns:
            cert = f_multi(pattern, 3, n)
            expected = brute_canonical_witness(pattern, (n, n, n))
            assert cert.value == expected.weight
            assert cert.witness == expected

    def test_diagonal_3d_side2(self):
        diag = make_matrix([2, 2, 2], [(1, 1, 1), (2, 2, 2)])
        value = f_multi(diag, 3, 2).value
        assert value == brute_max_weight(diag, (2, 2, 2)) == 7


class TestGexGraph:
    def test_single_edge_pattern(self):
        for n in (1, 2, 3, 4):
            assert gex_graph(SINGLE_EDGE, n).value == 0

    def test_path_pattern_n3(self):
        path = make_hypergraph(3, [(1, 2), (2, 3)])
        value = gex_graph(path, 3).value
        assert value == brute_gex(path, 3) == 2

    def test_requires_two_uniform(self):
        with pytest.raises(InputError):
            gex_graph(make_hypergraph(3, [(1, 2, 3)]), 3)

    def test_edgeless_pattern_rejected_when_it_fits(self):
        for pattern_n in (2, 3):
            with pytest.raises(InputError):
                gex_graph(make_hypergraph(pattern_n, []), 3)
        # one vertex too many: every ordered graph on [3] avoids it
        assert gex_graph(make_hypergraph(4, []), 3).value == 3

    def test_capacity(self):
        # C(8, 2) = 28 candidate edges are allowed, C(9, 2) = 36 are not
        assert gex_graph(SINGLE_EDGE, 8).value == 0
        with pytest.raises(CapacityError):
            gex_graph(SINGLE_EDGE, 9)

    def test_oracle_equivalence_small(self):
        patterns = [
            make_hypergraph(3, [(1, 2)]),
            make_hypergraph(3, [(1, 3), (2, 3)]),
            make_hypergraph(4, [(1, 3), (2, 4)]),
        ]
        for pattern in patterns:
            for n in (1, 2, 3, 4):
                expected = brute_gex(pattern, n)
                if expected is None:
                    with pytest.raises(InputError):
                        gex_graph(pattern, n)
                else:
                    cert = gex_graph(pattern, n)
                    assert cert.value == expected
                    assert hypergraph_contains(cert.witness, pattern) is None


class TestHyperExtremal:
    def test_single_edge_pattern_keeps_singletons(self):
        for n in (1, 2, 3):
            assert exe_hyper(SINGLE_EDGE, n).value == n
            assert exi_hyper(SINGLE_EDGE, n).value == n

    def test_singleton_pattern_forces_empty(self):
        pattern = make_hypergraph(1, [(1,)])
        assert exe_hyper(pattern, 3).value == 0
        assert exi_hyper(pattern, 3).value == 0

    def test_identity_hypergraph_n3(self):
        # the pattern needs 4 vertices, so every host on [3] avoids it
        assert exe_hyper(IDENTITY_HYPERGRAPH, 3).value == 7
        assert exi_hyper(IDENTITY_HYPERGRAPH, 3).value == 12
        assert brute_hyper_extremal(IDENTITY_HYPERGRAPH, 3, "edges") == 7
        assert brute_hyper_extremal(IDENTITY_HYPERGRAPH, 3, "weight") == 12

    def test_oracle_equivalence_with_cap(self):
        for pattern in (SINGLE_EDGE, IDENTITY_HYPERGRAPH, make_hypergraph(2, [(1,), (1, 2)])):
            cap = max(pattern.n, 1)
            for n in (1, 2, 3):
                assert exe_hyper(pattern, n).value == brute_hyper_extremal(
                    pattern, n, "edges", cap
                )
                assert exi_hyper(pattern, n).value == brute_hyper_extremal(
                    pattern, n, "weight", cap
                )

    def test_exact_flag_lifts_the_cap(self):
        # edge_cap=n, the CLI's --exact; nested pattern: a long edge is the
        # best capped-out avoider
        pattern = make_hypergraph(2, [(1,), (1, 2)])
        capped = exi_hyper(pattern, 4).value
        exact = exi_hyper(pattern, 4, edge_cap=4).value
        assert exact == brute_hyper_extremal(pattern, 4, "weight")
        assert exact >= capped

    def test_capacity(self):
        # with edge_cap=1 the candidates are the n singletons: 20 are
        # allowed, 21 are not
        assert exe_hyper(SINGLE_EDGE, 20, edge_cap=1).value == 20
        with pytest.raises(CapacityError):
            exe_hyper(SINGLE_EDGE, 21, edge_cap=1)
        with pytest.raises(CapacityError):
            exe_hyper(IDENTITY_HYPERGRAPH, 6)


class TestCountAvoiders:
    def test_single_edge_powers_of_two(self):
        assert [count_avoiders(SINGLE_EDGE, n) for n in (1, 2, 3, 4)] == [2, 4, 8, 16]

    def test_pattern_with_singleton_edge(self):
        pattern = make_hypergraph(2, [(1,), (1, 2)])
        # n = 0, 1: the pattern needs two vertices, so every host avoids it.
        # n = 2: the copy needs {1, 2} and, for vertex 1, another edge
        # holding 1, which can only be {1}; 2 of the 8 hosts hold both
        assert [count_avoiders(pattern, n) for n in (0, 1, 2)] == [1, 2, 6]
        # any host with an edge contains the singleton pattern
        assert count_avoiders(make_hypergraph(1, [(1,)]), 3) == 1

    def test_identity_hypergraph_n3(self):
        assert count_avoiders(IDENTITY_HYPERGRAPH, 3) == 128

    def test_oracle_equivalence(self):
        for pattern in (
            SINGLE_EDGE,
            make_hypergraph(1, [(1,)]),
            make_hypergraph(3, [(1, 2), (2, 3)]),
            make_hypergraph(2, [(1,), (1, 2)]),
        ):
            for n in (0, 1, 2, 3):
                assert count_avoiders(pattern, n) == brute_count_avoiders(pattern, n)

    def test_capacity_without_cap(self):
        # 2^4 - 1 = 15 candidate edges are allowed, 2^5 - 1 = 31 are not
        assert count_avoiders(SINGLE_EDGE, 4) == 16
        with pytest.raises(CapacityError):
            count_avoiders(SINGLE_EDGE, 5)

    def test_cap_allows_larger_n(self):
        # avoiders of the single edge are exactly the singleton subsets
        assert count_avoiders(SINGLE_EDGE, 5, edge_size_cap=1) == 2**5


class TestCapacityRefusal:
    """A refused instance costs no more than counting its candidates."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda n: exe_hyper(IDENTITY_HYPERGRAPH, n),
            lambda n: exi_hyper(IDENTITY_HYPERGRAPH, n),
            lambda n: count_avoiders(IDENTITY_HYPERGRAPH, n),
            lambda n: count_avoiders(IDENTITY_HYPERGRAPH, n, edge_size_cap=4),
            lambda n: gex_graph(IDENTITY_HYPERGRAPH, n),
        ],
        ids=["exe", "exi", "count", "count-capped", "gex"],
    )
    def test_refused_before_listing_candidates(self, solve):
        # at n = 60 and cap 4 there are 523,685 candidate edges, and listing
        # them takes tens of MiB; the refusal must come from their count
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                solve(60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "solve",
        [
            lambda n: exe_hyper(IDENTITY_HYPERGRAPH, n),
            lambda n: exi_hyper(IDENTITY_HYPERGRAPH, n, edge_cap=n),
            lambda n: count_avoiders(IDENTITY_HYPERGRAPH, n, edge_size_cap=4),
        ],
        ids=["exe", "exi-uncapped", "count-capped"],
    )
    def test_huge_n_is_refused_at_once(self, solve):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            solve(10**6)
        assert time.perf_counter() - start < 1.0


class TestTables:
    def _identity_table(self):
        rows = tuple(
            TableRow(n, ex_matrix(IDENTITY2, n).value, f"w{n}.txt") for n in (1, 2, 3, 4, 5)
        )
        return ExtremalTable("identity2", "ex", 2, rows)

    def test_limit_estimate(self):
        table = self._identity_table()
        assert estimate_limit(table) == Fraction(9, 5)
        single = ExtremalTable(
            "single", "ex", 2, (TableRow(1, 0), TableRow(2, 0), TableRow(3, 0))
        )
        assert estimate_limit(single) == 0

    def test_limit_estimate_of_kind_f_is_the_last_row_ratio(self):
        # the 3-d identity of length 2: f = n^3 - (n - 1)^3, so the last
        # row n = 3 gives 19 / 3^2, the table's own ratio column
        identity = make_matrix([2, 2, 2], [(1, 1, 1), (2, 2, 2)])
        rows = tuple(TableRow(n, f_multi(identity, 3, n).value) for n in (1, 2, 3))
        table = ExtremalTable("identity3d", "f", 3, rows)
        assert [r.value for r in rows] == [1, 7, 19]
        assert estimate_limit(table) == table.primary_ratio(rows[-1]) == Fraction(19, 9)

    def test_ratio_monotone_reported(self):
        assert self._identity_table().ratios_monotone()

    def test_rows_must_be_sorted(self):
        with pytest.raises(PostconditionError):
            ExtremalTable("x", "ex", 2, (TableRow(2, 3), TableRow(1, 1)))

    def test_values_must_not_decrease(self):
        with pytest.raises(PostconditionError):
            ExtremalTable("x", "ex", 2, (TableRow(1, 3), TableRow(2, 1)))

    def test_csv_shape(self):
        text = table_to_csv(self._identity_table())
        lines = text.strip().split("\n")
        assert lines[0] == "n,value,ratio,witness_file"
        assert lines[1] == "1,1,1,w1.txt"
        assert lines[5] == "5,9,9/5,w5.txt"
