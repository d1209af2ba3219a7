"""Solvers checked against enumeration oracles and their frozen values."""

import functools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations, product

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
    matrix_copy_masks,
    transfer_max_weight,
    trivial_bound_max_weight,
)

IDENTITY2 = permutation_matrix((1, 2))
ALL_ONES_2 = make_matrix([2, 2], [(1, 1), (1, 2), (2, 1), (2, 2)])
SINGLE_EDGE = make_hypergraph(2, [(1, 2)])
IDENTITY_HYPERGRAPH = make_hypergraph(4, [(1, 3), (2, 4)])
CROSSING = IDENTITY_HYPERGRAPH
SEPARATED = make_hypergraph(4, [(1, 2), (3, 4)])


def _solved(pattern, n):
    # value and witness through the public solver, certificate re-check included
    cert = f_multi(pattern, pattern.d, n)
    return cert.value, cert.witness.ones


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

    @pytest.mark.parametrize("k, n_max", [(2, 8), (3, 5)])
    def test_identity_furedi_hajnal(self, k, n_max):
        # Furedi & Hajnal 1992: ex(I_k, n) = (k - 1)(2n - k + 1) for n >= k - 1.
        # I_2 goes to n = 8, the 64-cell limit: its boxes of k slices hold
        # k + n - 1, where the column-deletion cap is exact, so a cap one
        # too low returns a lighter avoider that the certificate re-check
        # accepts
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
        # Zarankiewicz numbers z(n; 2) (Guy; OEIS A001197).  A cap that
        # under-counts returns a lighter avoider, which the certificate
        # re-check accepts; only a reference like this one catches it
        values = [ex_matrix(ALL_ONES_2, n).value for n in range(1, 7)]
        assert values == [1, 3, 6, 9, 12, 16]

    def test_stacked_all_ones_zarankiewicz(self):
        # the 2x2 all-ones pattern inside one axis-1 slice of a 3-d host: a
        # host avoids it exactly when every slice does, so f = n z(n; 2).
        # The solver drops the extent-1 axis; the search over the whole
        # cube is checked too, as the one-slice-deletion cap is tight on
        # every slice there, and the last slice, where no cap holds, has
        # the most to lose to a cap
        stacked = make_matrix([1, 2, 2], [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)])
        expected = [n * z for n, z in zip(range(1, 5), [1, 3, 6, 9])]
        assert [f_multi(stacked, 3, n).value for n in range(1, 5)] == expected
        assert [_whole_cube_search(stacked, n)[0] for n in range(2, 5)] == expected[1:]

    def test_l_shape(self):
        # ex((1,1)(1,2)(2,1), n) = 2n - 1.  A 1-entry that is neither the
        # last in its row nor the last in its column has a later entry in
        # its row and a lower one in its column, and the three are a copy.
        # So in an avoider every entry is the last in its row or in its
        # column, at most n + n entries, and the last entry of the last
        # nonempty row is both.  The last row plus the last column, 2n - 1
        # entries, avoid it: only the last row holds two entries, and no
        # row lies below it
        l_shape = make_matrix([2, 2], [(1, 1), (1, 2), (2, 1)])
        for n in range(1, 8):
            assert ex_matrix(l_shape, n).value == 2 * n - 1

    @pytest.mark.parametrize("axis", [0, 1, 2], ids=["axis1", "axis2", "axis3"])
    def test_3d_line(self, axis):
        # f = 2n^2 for n >= 2 and 1 at n = 1 for three 1-entries on one
        # axis-a line, such as the 3x1x1 column.  A copy is three 1-entries
        # on one axis-a line of the host; the n^2 such lines partition the
        # cube, and an avoider holds at most 2 entries on each.  Two full
        # slices across axis a reach that bound.  At n <= 2 the line never
        # fits.  The solver drops the two extent-1 axes; searched over the
        # whole cube, the axis-1 line at n = 4 took over 40 s
        extents = [3 if a == axis else 1 for a in range(3)]
        ones = [tuple(i if a == axis else 1 for a in range(3)) for i in (1, 2, 3)]
        line = make_matrix(extents, ones)
        for n in range(1, 5):
            assert f_multi(line, 3, n).value == (1 if n == 1 else 2 * n * n)

    @pytest.mark.parametrize("edges", [[(1, 3), (2, 4)], [(1, 4), (2, 3)]])
    def test_crossing_and_nesting_matchings(self, edges):
        # gex = 2n - 3 for n >= 2, for either pair.  Crossing {13,24}: an
        # ordered graph with no two crossing edges is an outerplanar drawing
        # of n points in convex position, which has at most 2n - 3 edges (a
        # triangulation of the n-gon).  Nesting {14,23}: an ordered graph
        # with no two nesting edges is a 1-queue layout, which has at most
        # 2n - 3 edges (Heath & Rosenberg, SIAM J. Comput. 21, 1992).  n = 8
        # is the MAX_GRAPH_CANDIDATES limit of 28 pairs
        matching = make_hypergraph(4, edges)
        for n in range(2, 9):
            assert gex_graph(matching, n).value == 2 * n - 3

    def test_separated_matching(self):
        # gex({12,34}, n) = floor((n + 1)^2 / 4) - 1.  A copy is two edges
        # a < b < c < d, one wholly left of the other.  So in an avoider
        # every two edges, read as closed intervals [a, b], meet, and by
        # Helly's theorem on the line all of them share a point: max a,
        # which is at most min b.  That point is a vertex p, and the edges
        # a < b with a <= p <= b number p(n + 1 - p) - 1.  Those edges
        # pairwise meet at p, so each such star avoids the pattern, and the
        # greatest star, at p = floor((n + 1) / 2), holds the closed form
        for n in range(1, 9):
            stars = [
                make_hypergraph(
                    n, [(a, b) for a in range(1, p + 1) for b in range(p, n + 1) if a < b]
                )
                for p in range(1, n + 1)
            ]
            assert all(hypergraph_contains(star, SEPARATED) is None for star in stars)
            assert max(star.edge_count for star in stars) == (n + 1) ** 2 // 4 - 1
            assert gex_graph(SEPARATED, n).value == (n + 1) ** 2 // 4 - 1

    def test_noncrossing_graph_counts(self):
        # count_avoiders({13,24}, n, edge_size_cap=2) = 2^n A054726(n).  A
        # singleton edge holds no pattern edge, so each of the n singletons
        # doubles the count, and the 2-edges of an avoider are a graph with
        # no two crossing edges: a non-crossing graph on n points in convex
        # position.  A054726 counts those: 1, 2, 8, 48, 352 (Flajolet & Noy,
        # Discrete Math. 204, 1999).  n = 6 has 21 candidate edges, past
        # MAX_HYPER_CANDIDATES
        for n, graphs in enumerate([1, 2, 8, 48, 352], start=1):
            assert count_avoiders(CROSSING, n, edge_size_cap=2) == 2**n * graphs

    def test_nonnesting_graph_counts(self):
        # count_avoiders({14,23}, n, edge_size_cap=2) = 2^n A054726(n) too.
        # The 2-edges of an avoider are a graph with no two nesting edges,
        # and de Mier (Combinatorica 27, 2007) shows that the k-nonnesting
        # and the k-noncrossing graphs on [n] are equinumerous, here with
        # k = 2.  {12,34} has no such proof and is not pinned
        nesting = make_hypergraph(4, [(1, 4), (2, 3)])
        for n, graphs in enumerate([1, 2, 8, 48, 352], start=1):
            assert count_avoiders(nesting, n, edge_size_cap=2) == 2**n * graphs


class TestPlantedSpuriousCopy:
    """A spurious copy in the copy index makes the graph solvers count too
    low.  The certificate re-check cannot see it, because the witness
    still avoids the pattern and has the stated size; the published rows
    must."""

    @pytest.fixture(autouse=True)
    def spurious_copy(self, monkeypatch):
        hyper_copies = search._hyper_copies

        def with_spurious_copy(holding, widest, pattern):
            # the first candidate edge alone, which holds no copy of a
            # two-edge pattern; widest is 0 only with no candidate
            copies = hyper_copies(holding, widest, pattern)
            return copies | {1} if widest else copies

        monkeypatch.setattr(search, "_hyper_copies", with_spurious_copy)

    def test_the_certificate_re_check_accepts_it(self):
        cert = gex_graph(CROSSING, 4)
        assert cert.verified and cert.value == 4  # 2n - 3 is 5

    @pytest.mark.parametrize(
        "row",
        [
            lambda rows: rows.test_crossing_and_nesting_matchings([(1, 3), (2, 4)]),
            lambda rows: rows.test_crossing_and_nesting_matchings([(1, 4), (2, 3)]),
            lambda rows: rows.test_separated_matching(),
            lambda rows: rows.test_noncrossing_graph_counts(),
        ],
        ids=["crossing", "nesting", "separated", "noncrossing-counts"],
    )
    def test_the_published_rows_reject_it(self, row):
        with pytest.raises(AssertionError):
            row(TestPublishedValues())


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
            assert _solved(pattern, n) == trivial_bound_max_weight(pattern, n)

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
        assert _solved(pattern, n) == trivial_bound_max_weight(pattern, n)


def _capped_and_plain_calls(pattern, n):
    # the matrix value search, with the one-slice-deletion cap and slice
    # bounds where the pattern allows them, and the plain search without them:
    # the same value and set, and no more calls with them
    index = search._matrix_index(pattern, n)
    gain = [1] * n**pattern.d
    plain = search._branch_and_bound(gain, index, sys.maxsize, rest=search._rest(gain))
    capped = search._matrix_search(pattern, n, index, sys.maxsize)
    assert capped[:2] == plain[:2]
    assert capped[2] <= plain[2]
    return capped[2], plain[2]


def _no_empty_line(pattern):
    return all(
        {one[axis] for one in pattern.ones} == set(range(1, k + 1))
        for axis, k in enumerate(pattern.extents)
    )


class TestSliceCap:
    """Each start of the matrix value search is capped by the
    one-slice-deletion bound of the suffix at the next slice boundary, and
    each decided axis-1 slice of its box is bounded from both sides by the
    same count."""

    @pytest.mark.parametrize("extents", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
    def test_small_patterns_keep_value_and_set(self, extents):
        patterns = [m for m in all_matrices(extents) if _no_empty_line(m)]
        calls = [_capped_and_plain_calls(m, n) for m in patterns for n in range(1, 5)]
        capped, plain = map(sum, zip(*calls))
        assert capped < plain

    def test_3x3_permutations_keep_value_and_set(self):
        for perm in permutations((1, 2, 3)):
            _capped_and_plain_calls(permutation_matrix(perm), 4)

    def test_random_3d_patterns_keep_value_and_set(self):
        rng = random.Random(17)
        for _ in range(40):
            extents = tuple(rng.randint(1, 3) for _ in range(3))
            cells = list(product(*(range(1, k + 1) for k in extents)))
            ones = rng.sample(cells, rng.randint(1, min(4, len(cells))))
            pattern = BinaryMatrix(extents, frozenset(ones))
            _capped_and_plain_calls(pattern, rng.randint(1, 3))

    def test_no_cap_when_the_first_slice_is_empty(self):
        # the pattern's copies may put its empty first slice before the
        # box, so the suffix at the second slice, 16, is not a box value:
        # the value 25 exceeds the cap 3 * 16 // 2 = 24.  Its search makes
        # the plain search's calls; the same pattern with its empty first
        # slice removed is capped, and makes fewer (154 against 158)
        pattern = make_matrix([3, 2, 3], [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)])
        capped, plain = _capped_and_plain_calls(pattern, 3)
        assert capped == plain
        shifted = make_matrix([2, 2, 3], [(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 2, 1)])
        capped, plain = _capped_and_plain_calls(shifted, 3)
        assert capped < plain
        assert _solved(pattern, 3) == trivial_bound_max_weight(pattern, 3)
        assert _solved(pattern, 3)[0] == 25

    @pytest.mark.parametrize(
        "pattern, n, most",
        [
            (make_matrix([2, 2], [(1, 1), (1, 2), (2, 1)]), 5, 2500),
            (IDENTITY2, 6, 1500),
        ],
        ids=["L-shape", "I2"],
    )
    def test_slice_weights_bound_the_rows_the_cap_cannot(self, pattern, n, most):
        # both values are k + n - 1 for every box of k slices, so the cap
        # never binds; each completed slice is cut to the weights the
        # deletion count leaves it.  The cap alone makes 9,784 and 7,474
        # calls, the rule about 1,900 and 1,100
        assert _capped_and_plain_calls(pattern, n)[0] < most

    @pytest.mark.parametrize(
        "pattern, n, most",
        [(make_matrix([2, 3], [(1, 1), (2, 2), (2, 3)]), 5, 340), (IDENTITY2, 7, 4600)],
        ids=["Q23", "I2"],
    )
    def test_the_upper_bound_counts_every_other_slice(self, pattern, n, most):
        # a slice holds at most the shorter box's value less the share of
        # the other slices left beside it; bounding it by that value alone
        # cuts less, 382 and 5,323 calls against about 310 and 4,200
        assert _capped_and_plain_calls(pattern, n)[0] < most

    def test_all_ones_at_5_needs_few_calls(self):
        # starts 0-2 cost 35,236 of the 42,269 calls without the cap.  The
        # 4x5 box below the first row holds at most 10, so the first row's
        # cap is 5 * 10 // 4 = 12 = z(5; 2): starts 1 and 2 need no search
        # and start 0 stops at its first leaf of weight 12
        capped, plain = _capped_and_plain_calls(ALL_ONES_2, 5)
        assert capped < 2000 < plain


def _column_capped_and_plain_calls(pattern, n, boxes=None):
    # the matrix value search at side n with the column-deletion caps from
    # the box values of side n - 1 (by default the same pattern's value
    # search there), and without them: the same value and set, and no more
    # calls with them
    if boxes is None:
        below = search._matrix_index(pattern, n - 1)
        boxes = search._matrix_search(pattern, n - 1, below, sys.maxsize)[3]
    index = search._matrix_index(pattern, n)
    plain = search._matrix_search(pattern, n, index, sys.maxsize)
    capped = search._matrix_search(pattern, n, index, sys.maxsize, boxes=boxes)
    assert capped[:2] == plain[:2]
    assert capped[2] <= plain[2]
    return capped[2], plain[2]


class TestColumnCap:
    """A ranked 2-d value search also caps each box of k < n slices by
    deleting one of its n columns, with the box values of side n - 1."""

    @pytest.mark.parametrize(
        "extents, n_max", [((2, 2), 6), ((2, 3), 5), ((3, 2), 5)], ids=["2x2", "2x3", "3x2"]
    )
    def test_small_patterns_keep_value_and_set(self, extents, n_max):
        # each row's value search runs on the image the solver ranks
        # cheapest, with the box values the ranking hands back; a row below
        # the gate, which has none, takes the pattern's own at side n - 1.
        # The public solver then finds the uncapped search's value, and the
        # witness that the first-leaf search finds with it
        calls = []
        for m in all_matrices(extents):
            if not _no_empty_line(m):
                continue
            for n in range(2, n_max + 1):
                image, _, boxes = search._cheapest_image(m, n)
                calls.append(_column_capped_and_plain_calls(image, n, boxes or None))
                value, chosen = search._matrix_search(image, n, search._matrix_index(image, n))[:2]
                if image is not m:
                    index = search._matrix_index(m, n)
                    chosen = search._matrix_search(m, n, index, value=value)[1]
                cells = product(range(1, n + 1), repeat=2)
                ones = frozenset(c for i, c in enumerate(cells) if chosen >> i & 1)
                assert _solved(m, n) == (value, ones)
        capped, plain = map(sum, zip(*calls))
        assert capped < plain

    @pytest.mark.parametrize(
        "pattern, n, most",
        [(make_matrix([2, 2], [(1, 1), (1, 2), (2, 1)]), 5, 1000), (IDENTITY2, 6, 300)],
        ids=["L-shape", "I2"],
    )
    def test_the_column_cap_is_exact_where_the_row_cap_is_not(self, pattern, n, most):
        # a box of k slices holds k + n - 1 and its k x (n - 1) box k + n - 2,
        # so the column cap n (k + n - 2) // (n - 1) is k + n - 1 for every
        # k < n.  With the row cap and the slice bounds alone the searches
        # make 1,924 and 1,075 calls; with the column cap 912 and 238
        assert _column_capped_and_plain_calls(pattern, n)[0] < most

    def test_no_column_cap_in_three_dimensions(self):
        # deleting an axis-2 slice of a 3-d box leaves no smaller cube: the
        # 2-d cap 3 * 4 // 2 = 6 on the last slice of this pattern at n = 3
        # would give the value 12 instead of 15
        pattern = make_matrix([1, 2, 2], [(1, 1, 2), (1, 2, 1), (1, 2, 2)])
        below = search._matrix_index(pattern, 2)
        boxes = search._matrix_search(pattern, 2, below, sys.maxsize)[3]
        assert boxes == [0, 3, 6]
        index = search._matrix_index(pattern, 3)
        capped = search._matrix_search(pattern, 3, index, boxes=boxes)
        assert capped[:2] == search._matrix_search(pattern, 3, index)[:2]
        assert capped[0] == 15 == f_multi(pattern, 3, 3).value


class TestMatrixCopies:
    @pytest.mark.parametrize("d, n_max, count", [(2, 5, 80), (3, 3, 40)])
    def test_same_copies_as_the_listing_by_index_lists(self, d, n_max, count):
        # random patterns, some with empty lines and some larger than the
        # host on an axis, where there is no copy at all
        rng = random.Random(23 + d)
        empty_lines = too_large = 0
        for _ in range(count):
            extents = tuple(rng.randint(1, 3) for _ in range(d))
            cells = list(product(*(range(1, k + 1) for k in extents)))
            ones = rng.sample(cells, rng.randint(1, min(4, len(cells))))
            pattern = BinaryMatrix(extents, frozenset(ones))
            n = rng.randint(1, n_max)
            keep, listed = search._matrix_index(pattern, n)
            # copy j is the set of cells whose keep lacks bit j: each copy once
            copies = [
                sum(1 << i for i, k in enumerate(keep) if not k >> j & 1) for j in range(listed)
            ]
            assert len(set(copies)) == listed
            assert set(copies) == matrix_copy_masks(pattern, n)
            empty_lines += not _no_empty_line(pattern)
            if max(extents) > n:
                too_large += 1
                assert listed == 0
        assert empty_lines and too_large


@functools.lru_cache(maxsize=None)
def _own_search(image, n, most):
    # the image's value search over its own copies, listed by the oracle,
    # or None over the budget
    index = search._copy_index(matrix_copy_masks(image, n), n**image.d)
    return search._matrix_search(image, n, index, most)


def _shared_search(index, d, image, symmetry, n, most):
    # the same search through the pattern's copy index in the image's cell order
    return search._matrix_search(image, n, search._image_index(index, d, n, symmetry), most)


class TestSharedCopyIndex:
    """An image's copies are the pattern's, moved by the symmetry, so each
    image is searched through the pattern's copy index read in the
    image's cell order: the same value, set, calls and boxes as a search
    over the image's own copies."""

    @pytest.mark.parametrize("seed", range(3))
    def test_keep_and_top_by_definition(self, seed):
        # copy j is the set of decisions whose keep lacks bit j, and top
        # holds it at its greatest decision
        rng = random.Random(seed)
        for _ in range(100):
            total = rng.randint(1, 20)
            copies = {rng.randint(1, (1 << total) - 1) for _ in range(rng.randint(0, 30))}
            keep, count = search._copy_index(copies, total)
            assert count == len(copies)
            masks = [
                sum(1 << i for i in range(total) if not keep[i] >> j & 1) for j in range(count)
            ]
            assert set(masks) == copies
            top = search._tops(keep, (1 << count) - 1)
            for i in range(total):
                ending = [j for j, m in enumerate(masks) if m.bit_length() == i + 1]
                assert top[i] == sum(1 << j for j in ending)

    @pytest.mark.parametrize("seed", range(3))
    def test_value_search_budget_boundary(self, seed):
        # given one call fewer than it makes, the value search returns
        # None; given exactly its calls, what it returns with no limit
        rng = random.Random(seed)
        for _ in range(100):
            total = rng.randint(1, 20)
            gain = [rng.randint(1, 3) for _ in range(total)]
            copies = {rng.randint(1, (1 << total) - 1) for _ in range(rng.randint(1, 30))}
            index = search._copy_index(copies, total)
            rest = search._rest(gain)
            value, chosen, calls, boxes = search._branch_and_bound(
                gain, index, sys.maxsize, rest=rest
            )
            assert search._branch_and_bound(gain, index, rest=rest) == (value, chosen, 0, boxes)
            assert search._branch_and_bound(gain, index, calls - 1, rest=rest) is None
            assert search._branch_and_bound(gain, index, calls, rest=rest) == (
                value, chosen, calls, boxes
            )

    def test_ranked_row_budget_boundary(self):
        # the L-shape given as (1,2)(2,1)(2,2) is ranked at side 4 for
        # n = 5, where its own value search makes 864 calls with slices
        pattern = make_matrix([2, 2], [(1, 2), (2, 1), (2, 2)])
        index = search._matrix_index(pattern, 4)
        assert search._matrix_search(pattern, 4, index, 863) is None
        found = search._matrix_search(pattern, 4, index, 864)
        assert found == search._matrix_search(pattern, 4, index, sys.maxsize)
        assert found[2] == 864 and found[3] == [0, 4, 5, 6, 7]

    @pytest.mark.parametrize("extents", [(2, 2), (2, 3), (3, 2)], ids=["2x2", "2x3", "3x2"])
    def test_every_image_of_small_patterns(self, extents):
        # at side 5 within 5,000 calls, which 43 of the 162 searches of the
        # 2x3 or 3x2 patterns' images finish; the others must both stop
        for m in all_matrices(extents):
            if not _no_empty_line(m):
                continue
            for n in range(3, 6):
                most = sys.maxsize if n < 5 else 5000
                index = search._matrix_index(m, n)
                for image, symmetry in search._matrix_images(m):
                    shared = _shared_search(index, m.d, image, symmetry, n, most)
                    assert shared == _own_search(image, n, most)

    def test_random_3d_patterns(self):
        # a search over its budget returns None in both ways or in neither
        rng = random.Random(31)
        done = over = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            extents = tuple(rng.randint(1, min(n, 3)) for _ in range(3))
            cells = list(product(*(range(1, k + 1) for k in extents)))
            ones = rng.sample(cells, rng.randint(1, min(4, len(cells))))
            pattern = BinaryMatrix(extents, frozenset(ones))
            image, symmetry = rng.choice(search._matrix_images(pattern))
            found = _own_search(image, n, 3000)
            index = search._matrix_index(pattern, n)
            assert _shared_search(index, 3, image, symmetry, n, 3000) == found
            done += found is not None
            over += found is None
        assert done and over


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
        found = [image for image, _ in search._matrix_images(pattern)]
        assert found[0] == pattern and len(set(found)) == len(found) == images
        assert len({ex_matrix(image, n).value for image in found}) == 1

    @pytest.mark.parametrize(
        "pattern, n", [row[:2] for row in RANKED_ROWS], ids=["L3", "Z23", "Q23", "I2"]
    )
    def test_witness_of_an_image_that_is_not_the_cheapest(self, pattern, n):
        # the first image whose value comes from another image: its witness
        # is found by the first-leaf search, not by the value search
        image = next(
            im for im, _ in search._matrix_images(pattern) if search._cheapest_image(im, n)[0] != im
        )
        assert _solved(image, n) == trivial_bound_max_weight(image, n)

    def test_column_takes_its_value_from_the_row(self):
        # the 3x1 column costs about 9 s at n = 6 as given and milliseconds
        # as its transpose; the witness is the first optimal host of the
        # row-major include-first order, rows 1 and 2 full
        assert search._cheapest_image(COLUMN3, 6)[0] == make_matrix([1, 3], [(1, 1), (1, 2), (1, 3)])
        start = time.perf_counter()
        cert = ex_matrix(COLUMN3, 6)
        assert time.perf_counter() - start < 5
        assert cert.value == 12
        assert cert.witness.ones == frozenset(product((1, 2), range(1, 7)))

    def test_3d_identity_takes_its_value_from_an_image(self):
        # at n = 4 the f table of the 3-d identity takes about 2 s when
        # searched as given and about 0.25 s from this image
        identity = make_matrix([2, 2, 2], [(1, 1, 1), (2, 2, 2)])
        image, symmetry, _ = search._cheapest_image(identity, 4)
        assert image == make_matrix([2, 2, 2], [(1, 2, 2), (2, 1, 1)])
        assert symmetry == ((0, 1, 2), 1)

    def test_rows_below_the_gate_take_the_pattern_itself(self):
        # C(4, 2) C(4, 3) = 24 and C(5, 3) C(5, 1) = 50 copies
        for pattern, n in [(Z23, 4), (COLUMN3, 5)]:
            image, symmetry, boxes = search._cheapest_image(pattern, n)
            assert image is pattern and symmetry is None and boxes == []

    def test_a_slow_first_leaf_search_keeps_the_pattern_itself(self):
        # at n = 5 the pattern's value search makes 20,485 calls and an
        # image's 4,367, but the first-leaf search over the pattern's copies
        # needs 22,141 more; at n = 6 the first-leaf search would take
        # several seconds and the pattern's own value search takes 0.7 s
        pattern = make_matrix([2, 3], [(1, 1), (1, 3), (2, 2), (2, 3)])
        gain = [1] * 25
        rest = search._rest(gain)
        own = search._branch_and_bound(
            gain, search._matrix_index(pattern, 5), sys.maxsize, rest=rest
        )[2]
        calls = [
            search._branch_and_bound(
                gain, search._matrix_index(image, 5), sys.maxsize, rest=rest
            )[2]
            for image, _ in search._matrix_images(pattern)
        ]
        assert min(calls) < own == calls[0]
        assert search._cheapest_image(pattern, 6)[0] is pattern

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

        def one_too_high(gain, *args, **kwargs):
            found = solve(gain, *args, **kwargs)
            if found is None:  # a ranking search over its budget has no value
                return None
            value, *others = found
            return value + (math.isqrt(len(gain)) in sides), *others

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
            index = search._copy_index(copies, total)
            solve = functools.partial(search._branch_and_bound, gain, rest=search._rest(gain))
            value, chosen, _, _ = solve(index)
            found, first, calls, _ = solve(index, sys.maxsize, value=value)
            assert (found, first) == (value, chosen)
            assert solve(index, calls - 1, value=value) is None
            assert solve(index, calls, value=value)[1] == chosen
            with pytest.raises(PostconditionError):
                solve(index, value=value + 1)
            # with no copies every decision is taken, and nothing reaches more
            everything = (1 << total) - 1
            none = search._copy_index(set(), total)
            assert solve(none, value=sum(gain))[:2] == (sum(gain), everything)
            with pytest.raises(PostconditionError):
                solve(none, value=sum(gain) + 1)

    def test_the_gate_picks_the_same_images(self):
        # the six n = 5 rows whose image changed with the one-slice cap.
        # An image other than the pattern passes the gate only when the
        # first-leaf search at n = 4 fits in the pattern's value-search
        # calls less the image's, less one: the fourth row's 82 calls miss
        # its budget of 80, so those calls are pinned too
        rows = [
            ([2, 3], [(1, 2), (1, 3), (2, 1), (2, 2)], 1, 7),
            ([2, 3], [(1, 1), (1, 2), (2, 3)], 0, 8),
            ([2, 3], [(1, 1), (1, 2), (2, 2), (2, 3)], 0, 9),
            ([2, 3], [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)], 0, 82),
            ([3, 2], [(1, 2), (2, 1), (2, 2), (3, 1)], 3, 8),
            ([3, 2], [(1, 1), (2, 1), (2, 2), (3, 2)], 2, 9),
        ]
        gain = [1] * 16
        rest = search._rest(gain)
        for extents, ones, index, first_leaf_calls in rows:
            pattern = make_matrix(extents, ones)
            assert search._cheapest_image(pattern, 5)[0] == search._matrix_images(pattern)[index][0]
            copies = search._matrix_index(pattern, 4)
            value = search._branch_and_bound(gain, copies, rest=rest)[0]
            calls = search._branch_and_bound(gain, copies, sys.maxsize, rest=rest, value=value)[2]
            assert calls == first_leaf_calls



P123 = permutation_matrix((1, 2, 3))
P132 = permutation_matrix((1, 3, 2))
# the 2-d rows of the extremal_tables benchmark that cost the most, the
# n = 5 rows of its 2x2, 2x3 and 3x3 patterns and I2 at n = 6
TRANSFER_ROWS = [
    *[(pattern, 5) for pattern in (IDENTITY2, P123, P132, ALL_ONES_2, L3, Z23, Q23)],
    (IDENTITY2, 6),
]
TRANSFER_IDS = ["I2", "P123", "P132", "J2", "L3", "Z23", "Q23", "I2-n6"]


class TestColumnTransfer:
    """2-d values against the column-by-column transfer, which fixes the
    host rows of the pattern's rows and matches its columns greedily, and
    shares no code with the search or the containment engine."""

    def test_every_small_pattern_without_an_empty_line(self):
        patterns = [
            pattern
            for extents in ((2, 2), (2, 3), (3, 2))
            for pattern in all_matrices(extents)
            if _no_empty_line(pattern)
        ]
        assert len(patterns) == 57
        for pattern in patterns:
            for n in range(1, 5):
                assert ex_matrix(pattern, n).value == transfer_max_weight(pattern, n, n)

    @pytest.mark.parametrize("pattern, n", TRANSFER_ROWS, ids=TRANSFER_IDS)
    def test_benchmark_rows(self, pattern, n):
        assert ex_matrix(pattern, n).value == transfer_max_weight(pattern, n, n)

    @pytest.mark.parametrize("pattern, n", TRANSFER_ROWS, ids=TRANSFER_IDS)
    def test_the_ranking_boxes(self, pattern, n):
        # boxes[k] is the value of the k x (n - 1) box of the chosen image
        image, _, boxes = search._cheapest_image(pattern, n)
        assert boxes == [transfer_max_weight(image, k, n - 1) for k in range(n)]


class TestPlantedMatrixCopy:
    """A spurious copy in the matrix copy index, the one cell (1, 2),
    makes ``ex_matrix`` count too low.  The certificate re-check cannot
    see it, because the witness still avoids the pattern and has the
    stated weight; the column transfer must."""

    @pytest.fixture(autouse=True)
    def spurious_copy(self, monkeypatch):
        matrix_index = search._matrix_index

        def with_spurious_copy(pattern, n):
            # one more copy, which uses decision 1 alone
            keep, count = matrix_index(pattern, n)
            extra = 1 << count
            return [k if i == 1 else k | extra for i, k in enumerate(keep)], count + 1

        monkeypatch.setattr(search, "_matrix_index", with_spurious_copy)

    @pytest.mark.parametrize(
        "pattern, n, value, truth", [(IDENTITY2, 2, 2, 3), (P132, 3, 7, 8)], ids=["I2", "P132"]
    )
    def test_the_certificate_re_check_accepts_it(self, pattern, n, value, truth):
        cert = ex_matrix(pattern, n)
        assert cert.verified and cert.value == value
        assert search._certify_matrix(cert.value, cert.witness, pattern) == cert
        assert transfer_max_weight(pattern, n, n) == truth

    def test_the_transfer_rejects_it(self):
        with pytest.raises(AssertionError):
            TestColumnTransfer().test_every_small_pattern_without_an_empty_line()

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

    def test_an_edge_larger_than_every_candidate_lists_no_map(self, monkeypatch):
        # {1,2} fits no singleton, so no host on [20] holds a copy: every
        # singleton is taken, and none of the C(20, 10) maps is expanded
        expanded = []
        bits = search._bits
        monkeypatch.setattr(search, "_bits", lambda mask: expanded.append(mask) or bits(mask))
        pattern = make_hypergraph(10, [(1, 2)])
        cert = exe_hyper(pattern, 20, edge_cap=1)
        assert cert.value == 20 and cert.witness.edges == {(v,) for v in range(1, 21)}
        assert expanded == []

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


def _extent_one_patterns():
    # every 3-d pattern with an extent-1 axis, extents at most 3 and weight 1-4
    for extents in product((1, 2, 3), repeat=3):
        if 1 in extents:
            cells = list(product(*(range(1, k + 1) for k in extents)))
            for weight in range(1, 5):
                for ones in combinations(cells, weight):
                    yield BinaryMatrix(extents, frozenset(ones))


def _whole_cube_search(pattern, n):
    # the value search over every cell of the cube, no axis dropped
    chosen = search._matrix_search(pattern, n, search._matrix_index(pattern, n))[1]
    cells = product(range(1, n + 1), repeat=pattern.d)
    ones = frozenset(c for i, c in enumerate(cells) if chosen >> i & 1)
    return len(ones), ones


@functools.lru_cache(maxsize=None)
def _flat_reference(pattern, n):
    return trivial_bound_max_weight(pattern, n)


def _slice_repeated_reference(pattern, n):
    # the 2-d trivial-bound oracle on the pattern without its first
    # extent-1 axis, times n, its witness repeated in every slice; the
    # lemma in search._matrix_extremal's docstring makes this the row
    axis = pattern.extents.index(1)
    reduced = BinaryMatrix(
        pattern.extents[:axis] + pattern.extents[axis + 1 :],
        frozenset(one[:axis] + one[axis + 1 :] for one in pattern.ones),
    )
    value, ones = _flat_reference(reduced, n)
    slices = range(1, n + 1)
    return n * value, frozenset(c[:axis] + (x,) + c[axis:] for c in ones for x in slices)


class TestExtentOneAxis:
    """A pattern of d >= 3 with an extent-1 axis is solved without that
    axis: n times the value, and the reduced witness in every slice."""

    def test_every_small_pattern_keeps_value_and_witness(self):
        # 1,177 patterns.  At n <= 2 against the trivial-bound oracle; at
        # n = 3, where that oracle takes about a minute for all of them,
        # against the search over the whole cube, which the oracle checks
        # on random 3-d patterns in TestSuffixBound, and against the 2-d
        # oracle on the 403 distinct patterns without an extent-1 axis
        patterns = list(_extent_one_patterns())
        assert len(patterns) == 1177
        for pattern in patterns:
            for n in range(max(pattern.extents), 3):
                assert _solved(pattern, n) == trivial_bound_max_weight(pattern, n)
            solved = _solved(pattern, 3)
            assert solved == _whole_cube_search(pattern, 3)
            assert solved == _slice_repeated_reference(pattern, 3)

    @pytest.mark.parametrize(
        "extents, ones",
        [
            ((1, 3, 3), [(1, 1, 3), (1, 2, 2), (1, 3, 1)]),
            ((1, 2, 3), [(1, 1, 2), (1, 1, 3), (1, 2, 1)]),
            ((1, 2, 2), [(1, 1, 2), (1, 2, 1)]),
            ((3, 1, 3), [(1, 1, 1), (2, 1, 2), (3, 1, 3)]),
            ((2, 1, 3), [(1, 1, 2), (1, 1, 3), (2, 1, 1)]),
            ((2, 1, 2), [(1, 1, 2), (2, 1, 1)]),
            ((3, 3, 1), [(1, 3, 1), (2, 2, 1), (2, 3, 1), (3, 1, 1)]),
            ((2, 3, 1), [(1, 2, 1), (1, 3, 1), (2, 1, 1)]),
            ((2, 2, 1), [(1, 2, 1), (2, 1, 1)]),
        ],
        ids=["1x3x3", "1x2x3", "1x2x2", "3x1x3", "2x1x3", "2x1x2", "3x3x1", "2x3x1", "2x2x1"],
    )
    def test_rows_at_3_against_the_oracle(self, extents, ones):
        # n = 3 rows against the trivial-bound oracle itself, three for
        # each dropped axis, with no empty line
        pattern = make_matrix(list(extents), ones)
        assert _solved(pattern, 3) == trivial_bound_max_weight(pattern, 3)

    def test_2x3x1_at_4(self):
        # more than 60 s searched over the whole cube; about 1 ms reduced.
        # The 2x3 pattern without its third axis has ex 10 at n = 4
        pattern = make_matrix([2, 3, 1], [(1, 2, 1), (2, 1, 1), (2, 2, 1), (2, 3, 1)])
        flat = make_matrix([2, 3], [(1, 2), (2, 1), (2, 2), (2, 3)])
        start = time.perf_counter()
        cert = f_multi(pattern, 3, 4)
        assert time.perf_counter() - start < 5
        assert cert.value == 40 == 4 * ex_matrix(flat, 4).value
        row = ex_matrix(flat, 4).witness.ones
        assert cert.witness.ones == frozenset((i, j, k) for i, j in row for k in range(1, 5))


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


class TestCertificateRechecks:
    """Each solver's certificate re-check refuses a planted bad witness."""

    def test_matrix_witness_that_contains_the_pattern(self, monkeypatch):
        # the re-check's engine reports a copy in the witness
        monkeypatch.setattr(search, "matrix_contains", lambda host, pattern: (host, pattern))
        with pytest.raises(PostconditionError, match="avoidance re-check"):
            ex_matrix(IDENTITY2, 3)

    @pytest.mark.parametrize(
        "solve, pattern",
        [(gex_graph, make_hypergraph(3, [(1, 2), (2, 3)])), (exe_hyper, SINGLE_EDGE),
         (exi_hyper, SINGLE_EDGE)],
        ids=["gex", "exe", "exi"],
    )
    def test_hypergraph_witness_that_contains_the_pattern(self, monkeypatch, solve, pattern):
        monkeypatch.setattr(search, "hypergraph_contains", lambda host, pattern: (host, pattern))
        with pytest.raises(PostconditionError, match="avoidance re-check"):
            solve(pattern, 3)

    @pytest.mark.parametrize(
        "solve, pattern",
        [(gex_graph, make_hypergraph(3, [(1, 2), (2, 3)])), (exe_hyper, SINGLE_EDGE),
         (exi_hyper, SINGLE_EDGE)],
        ids=["gex", "exe", "exi"],
    )
    def test_hypergraph_value_its_witness_misses(self, monkeypatch, solve, pattern):
        solve_all = search._branch_and_bound

        def one_too_high(*args, **kwargs):
            value, *others = solve_all(*args, **kwargs)
            return value + 1, *others

        monkeypatch.setattr(search, "_branch_and_bound", one_too_high)
        with pytest.raises(PostconditionError, match="witness achieves"):
            solve(pattern, 3)


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

    def test_a_refused_range_caches_nothing(self, monkeypatch):
        # a refusal raises on every call and counts again each time: the
        # one-vertex edges pass the limit at the first size
        counts = _counted_binomials(monkeypatch)
        size = search._candidates.cache_info().currsize
        for calls in (1, 2):
            with pytest.raises(CapacityError, match="at least 21 candidate edges .* on 60 "):
                search._candidates(60, 1, 4, search.MAX_HYPER_CANDIDATES)
            assert len(counts) == calls
        assert search._candidates.cache_info().currsize == size

    def test_each_range_is_listed_once_and_shared_read_only(self):
        tables = search._candidates(4, 1, 3, search.MAX_HYPER_CANDIDATES)
        edges, holding, widest, (gain, rest) = tables
        expected = sorted(e for size in (1, 2, 3) for e in combinations(range(1, 5), size))
        assert list(edges) == expected
        assert list(holding) == [
            sum(1 << i for i, e in enumerate(expected) if v in e) for v in range(1, 5)
        ]
        assert widest == 3
        assert list(gain) == [len(e) for e in expected]
        assert list(rest) == [sum(gain[i:]) for i in range(len(gain) + 1)]
        for table in (tables, edges, holding, gain, rest):
            assert isinstance(table, tuple)
        again = search._candidates(4, 1, 3, search.MAX_HYPER_CANDIDATES)
        assert again is tables and all(a is b for a, b in zip(again, tables))

    def test_a_known_shape_is_neither_counted_nor_listed_again(self, monkeypatch):
        # every hypergraph row on [4] with edges of size 1..4 shares one
        # range, whatever its pattern and kind
        nesting = make_hypergraph(4, [(1, 4), (2, 3)])
        exe_hyper(CROSSING, 4)
        counts = _counted_binomials(monkeypatch)
        misses = search._candidates.cache_info().misses
        rows = [exe_hyper(nesting, 4), exi_hyper(nesting, 4), count_avoiders(nesting, 4)]
        assert counts == []
        assert search._candidates.cache_info().misses == misses
        candidates = hyper_candidates(4, 4)
        assert [rows[0].value, rows[1].value, rows[2]] == [
            engine_max_hyper(4, candidates, nesting, "edges")[0],
            engine_max_hyper(4, candidates, nesting, "weight")[0],
            engine_count_avoiders(4, candidates, nesting),
        ]

    def test_matrix_shape_tables_are_made_once_and_shared_read_only(self, monkeypatch):
        # the unit gains once per cell count; the ranking gate is counted on
        # every row, before any copy is listed (the index at n - 1 and n)
        ex_matrix(IDENTITY2, 5)
        counts = _counted_binomials(monkeypatch)
        index = search._matrix_index
        monkeypatch.setattr(
            search, "_matrix_index", lambda p, n: counts.append(("listed", n)) or index(p, n)
        )
        row = [[(5, 2), (5, 2)], ("listed", 4), ("listed", 5)]
        assert ex_matrix(IDENTITY2, 5).value == 9  # 2n - 1
        assert counts == row
        assert ex_matrix(permutation_matrix((2, 1)), 5).value == 9
        assert counts == row + row
        gain, rest = search._unit_gains(25)
        assert gain == (1,) * 25 and rest == tuple(range(25, -1, -1))
        assert search._unit_gains(25)[1] is rest


def _counted_binomials(monkeypatch) -> list:
    """Count the solvers' calls of binomial_product: each call appends its pairs."""
    counts = []
    count = search.binomial_product

    def counted(pairs, cap):
        counts.append(pairs)
        return count(pairs, cap)

    monkeypatch.setattr(search, "binomial_product", counted)
    return counts


EDGE = make_hypergraph(2, [(1, 2)])


@pytest.mark.parametrize(
    "refused,message",
    [
        (lambda: ex_matrix(IDENTITY2, 0), "n must be positive, got 0"),
        (lambda: gex_graph(EDGE, 0), "n must be positive, got 0"),
        (lambda: exi_hyper(EDGE, 0), "n must be positive, got 0"),
        (lambda: count_avoiders(EDGE, -1), "n must be nonnegative, got -1"),
        (
            lambda: ex_matrix(make_matrix([2, 2, 2], [(1, 1, 1), (2, 2, 2)]), 2),
            "ex_matrix needs a 2-dimensional pattern, got d=3",
        ),
        (lambda: exe_hyper(EDGE, 2, edge_cap=0), "edge size cap must be >= 1, got 0"),
        (
            lambda: estimate_limit(ExtremalTable("empty", "ex", 2, ())),
            "cannot estimate a limit from an empty table",
        ),
    ],
    ids=["ex_n0", "gex_n0", "exi_n0", "count_n_minus_1", "ex_3d", "edge_cap_0", "empty_table"],
)
def test_each_input_refusal_names_its_fault(refused, message):
    with pytest.raises(InputError, match=message):
        refused()


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
