"""Exact extremal values by branch-and-bound, and exact avoider counting.

Every solver decides a fixed list of decision variables, the host's
cells or its candidate edges in lexicographic order.  Before it searches
it numbers every copy of the pattern once and indexes the copies by
decision (the copy index): for each decision, the copies that do not use
it, as an int over copy numbers.  The graph and hypergraph solvers list
each copy as a bitmask over the decisions, in one flat loop over the
increasing vertex maps, and OR each copy into the index entry of every
decision it uses.  Their candidates are every edge of a range of sizes,
so once every pattern edge fits the largest size each map has a copy
and no map could be cut early; a pattern edge larger than every
candidate gives no copy at all, found by one size test.  The matrix
solvers build the index from the placements of the pattern's axes
without listing a copy.  The copies whose greatest decision it is,
and those that use no earlier one, follow by one pass of ANDs over the
index.  A host contains the pattern exactly when it holds one of these
copies, so a search node checks containment with one big-integer AND
and never runs the containment engine.

The extremal solvers share one branch-and-bound driver: the include/1
branch is tried before the exclude/0 branch, the incumbent is updated
only on strict improvement, and nodes are pruned by exact suffix values
solved first by the same search (Russian Doll Search).  A decision that
no live copy uses (no copy that can still be completed) is included with
no exclude branch, since that branch's leaves are the include branch's,
each worth less.  A bound or a skipped branch drops only nodes that
cannot strictly beat the incumbent, so the witness is the first optimal
leaf in this order whichever is used.  This makes every certificate
deterministic.  ``count_avoiders`` walks the same decisions, counts a
branch whose every completion avoids the pattern as a power of two, and
walks one branch of a decision no live copy uses and doubles its count.

The matrix solvers also cap each suffix start by the one-slice-deletion
bound (the double count of Kővári, Sós & Turán 1954).  At the start of
an axis-1 slice the suffix is the extremal value of the box of the k
slices from there on; deleting any one of them from an avoider leaves a
(k - 1)-slice avoider, and each 1-entry survives k - 1 of the k
deletions, so the box holds at most k·s / (k - 1) 1-entries, with s the
suffix at the next slice.  A start whose capped ceiling does not exceed
the suffix after it takes that value with no search; a 2x2 all-ones
row at n = 5 falls from 42,269 search calls to 1,458.  Only slice
boundaries of axis 1 are used, because only there do the remaining
cells form a box, and only patterns whose first axis-1 slice holds a
1-entry, because otherwise a copy may lie partly before the box;
``_matrix_search`` applies that guard.  The graph and hypergraph
solvers pass no slice: their decisions are edges of differing sizes and
gains, where one deleted vertex removes a varying share of an avoider's
edges, and no benchmark row of theirs is slow enough to show a
vertex-deletion analogue.

The same count bounds every single slice of the box, from both sides.
Deleting one slice of an avoider of weight W leaves an avoider of the
box one slice shorter, so every slice holds at least W less that box's
value.  Deleting another slice instead leaves the slice and all but one
of the others, each of them that heavy, within the same value, so the
slice holds at most that value less their least weight.  The value
search keeps only leaves that beat its incumbent, so a node returns
once it has decided the last cell of a slice whose weight is outside
these bounds for every such W.  This binds where the cap cannot, on
boxes of k slices whose value is k + n - 1: the L-shape (1,1)(1,2)(2,1)
at n = 5 falls from 9,784 search calls to 1,924 and the 2x2 identity at
n = 6 from 7,474 to 1,075.

A 2-d row that ranks its images (below) also caps each box of k < n
slices across columns: deleting one of its n columns leaves a k × (n -
1) avoider, so it holds at most n·V(k, n - 1) // (n - 1), with V(k,
n - 1) the suffix at that boundary in the side-(n - 1) value search of
the same image, which the ranking has already run to the end.  For the
boxes of value k + n - 1 this cap is exact: the L-shape at n = 5 falls
to 912 calls and the 2x2 identity at n = 6 to 238.  The L-shape's table
to n = 7 takes about 1 s, and its n = 8 row about 18 s, against about
45 s without the column cap.

Transposing or reversing axes maps the avoiders of a matrix pattern one
to one onto the avoiders of its image, so ``ex`` and ``f`` have one value
on all images, while the search can cost 70x more on one than on
another.  A matrix row with at least ``RANKED_COPIES`` (100) copies,
prod C(n, k_i) counted before any is listed, is therefore split in two.
The value search runs on the image that was cheapest one size down,
counted in search calls, and a first-leaf search over the pattern's own
copies finds the first optimal host of its include-first order: the
same witness.  The first-leaf search is the same driver's start 0, run
with the value known and before any suffix is solved, so it prunes only
by the gain left undecided (``suffix`` equals ``rest``).  The image
wins only if, at n - 1, its calls and the first-leaf search's together
stay below the pattern's own.  The gate takes the n = 5 rows of every
2x2, 2x3 and 3x3 pattern (exactly 100 copies) and the 2x2 rows at n = 6
(225), where the benchmark's tables spend their time.  Smaller rows run
the value search on the pattern alone; the largest row of the default
verify battery has 36 copies, and so does the largest unranked
benchmark row.

An image's copies, as sets of cells of the side-n cube, are the
pattern's copies moved by the symmetry, so searching an image is
searching the pattern's copies in another decision order.  The search
reads only set operations on copy numbers, so its calls, value and set
do not depend on how the copies are numbered.  A ranked row therefore
indexes the pattern's copies once per side, at n - 1 for the ranking
and at n for the value and first-leaf searches, and each image
reads that index through a table of its cell order, keyed only by
dimension, side and symmetry and cached across rows.

A pattern of d > 2 with an extent-1 axis lies in one slice across that
axis, so a host avoids it exactly when each of its n slices avoids the
pattern without that axis: the row is solved on that smaller pattern,
with n times its value and its witness in every slice.  The 2x3x1
pattern (1,2,1)(2,1,1)(2,2,1)(2,3,1) at n = 4 takes about 1 ms this way
and more than 60 s searched over the whole cube.

A row whose pattern has no copy is answered without a copy index or a
search: the whole host avoids it, so the value is every decision's gain
and the witness is the shape's full host.  The row returns the shape's
certificate of that host, made and weighed once and shared by every
such row (one per scoring mode for the hypergraph kinds), so it builds
no record and recounts no weight.  A matrix pattern has no copy exactly
when an extent is above n, and a hypergraph pattern when
:func:`_hyper_copies` lists none.  In the ``extremal_tables`` benchmark
97 of the 180 rows of each pass have no copy, the median row among
them: 82 extremal rows, which take the shared certificate, and 15
avoider counts, which ``count_avoiders`` answers as 2^(candidates)
before it indexes a copy.  The full host still passes the avoidance
re-check on each row, like any other witness.

Every matrix row takes one path: ``_solve_matrix_extremal`` takes the
full box when the pattern does not fit, and ``_matrix_extremal`` drops
extent-1 axes and makes each search of the row through
``_matrix_search``, which reads the unit gains, applies the slice guard
and, in 2-d, turns the side-(n - 1) boundary values into column caps.

A returned :class:`SearchCertificate` is always re-checked through the
public containment API, an engine the solvers do not run.  The check has
two steps: a certificate is weighed where it is made
(:func:`_weighed_matrix`, :func:`_weighed_hypergraph`), and every
certified row then makes exactly one avoidance re-check
(:func:`_certify_matrix`, :func:`_certify_hypergraph`), which returns
the certificate it is given.  Counting uses exact integer arithmetic
throughout.

Capacity limits are fixed module constants with hard errors, and
nothing is silently truncated.  Every limit is checked on a count
computed arithmetically, before anything is listed.

A table that depends only on a row's shape, never on its pattern, is
cached only where an A/B showed that it pays; every other one is made
on each row.  Uncaching each kept table alone, over 8 passes of the
``extremal_tables`` benchmark's rows in one process (``perf_counter``,
10 seeds, 2-CPU Xeon, Python 3.11.7), gave:

- ``_candidates``, a hypergraph row's candidates with their per-vertex
  masks, largest size, gains and suffix sums: the median row 71% slower
  (10.9 to 18.7 µs) and the summed row time 10% more.  Its key carries
  the caller's size cap, which no limit bounds, so it keeps 256 entries.
  A refused count raises and is never kept.  It also holds the
  certificates of the range's full host, one per scoring mode.
- ``_full_box``, the certificate of the side-n d-matrix of all
  1-entries.  At n = 1 every d has a key, so it keeps 32 entries; the
  cell limit admits only 13 keys with n ≥ 2.
- ``_unit_gains``, the unit gains with their suffix sums per decision
  count: the median row 7% slower (10.9 to 11.6 µs).
- ``_cell_order``, an image's cell order per dimension, side and
  symmetry: the 99th-percentile row 5% slower and the summed row time 3%
  more.

The shared certificates were measured together, on the speed clock of
``perfbench/clock.py`` and two sets of 10 seeds, otherwise as above.
With a new certificate made and the full host weighed on each row
instead, the median row was 50-52% slower (7.5 to 11.2-11.5 µs) and the
summed row time 6-8% more.  Pass 0, where each shape's certificate is
made, moved less than its noise.  A certificate whose host fails its
weighing raises and is never kept.  The capacity limits bound the last
two keys, so their caches take no size.  The tables are tuples or records,
shared read-only, and the search copies the suffix sums before it
writes.  The ranking gate and the cube's cells are counted and listed on
each row: cached, they moved no row.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations, permutations, product
from typing import Sequence

from .containment import (
    # unused here: perfbench/tracing.py rebinds both names in this module,
    # and CI's traced smoke run fails without them
    _hyper_embedding_search,
    _matrix_embedding_search,
    hypergraph_contains,
    matrix_contains,
)
from .errors import CapacityError, InputError, PostconditionError, int_text
from .structures import BinaryMatrix, Edge, OrderedHypergraph, _Record, binomial_product

MAX_CELLS = 64
MAX_GRAPH_CANDIDATES = 28
MAX_HYPER_CANDIDATES = 20
RANKED_COPIES = 100


class SearchCertificate(_Record):
    """An extremal value, a witness achieving it, and a re-check flag.

    ``verified`` means that the witness's weight (or edge count) was
    compared to the value when the certificate was made, and that a
    solver returns the certificate only after the witness has passed an
    independent avoidance re-check against the row's pattern.  The
    solvers share one certificate among all the rows of a shape whose
    pattern has no copy: it is weighed once, when it is made, and the
    avoidance re-check runs on every row before it is returned.
    """

    __slots__ = ("value", "witness", "verified")


class TableRow(_Record):
    __slots__ = ("n", "value", "witness_ref")
    _defaults = {"witness_ref": None}


class ExtremalTable(_Record):
    """Rows of (n, value, witness reference) for one pattern.

    ``kind`` is one of ex, f, gex, exe, exi and count, and ``dimension``
    is the pattern dimension (2 for graph kinds).  For the
    extremal kinds the values must be nondecreasing in n; avoider counts
    are exempt because adding isolated vertices can flip containment for
    patterns with trailing isolated vertices.
    """

    __slots__ = ("pattern_id", "kind", "dimension", "rows")

    def _check(self) -> None:
        ns = [r.n for r in self.rows]
        if ns != sorted(set(ns)):
            raise PostconditionError(f"table rows not strictly sorted by n: {ns}")
        if self.kind != "count":
            values = [r.value for r in self.rows]
            if any(values[i] > values[i + 1] for i in range(len(values) - 1)):
                raise PostconditionError(f"extremal values decreased: {values}")

    def primary_ratio(self, row: TableRow) -> Fraction | None:
        """value / n^(d-1) for kind f, value / n for the other extremal
        kinds, and None for avoider counts."""
        if self.kind == "count":
            return None
        exponent = self.dimension - 1 if self.kind == "f" else 1
        return Fraction(row.value, row.n**exponent)

    def ratios_monotone(self) -> bool:
        """Descriptive: whether the primary ratio is nondecreasing across rows."""
        ratios = [self.primary_ratio(r) for r in self.rows]
        if any(r is None for r in ratios):
            return False
        return all(ratios[i] <= ratios[i + 1] for i in range(len(ratios) - 1))


def estimate_limit(table: ExtremalTable) -> Fraction | None:
    """The primary ratio of the last row (value/n^(d-1) for kind f,
    value/n for the other extremal kinds, None for avoider counts);
    purely descriptive."""
    if not table.rows:
        raise InputError("cannot estimate a limit from an empty table")
    return table.primary_ratio(table.rows[-1])


def table_to_csv(table: ExtremalTable) -> str:
    """CSV with columns n, value, ratio, witness_file (ratio as exact p/q)."""
    lines = ["n,value,ratio,witness_file"]
    for r in table.rows:
        ratio = table.primary_ratio(r)
        lines.append(
            f"{r.n},{r.value},{'' if ratio is None else ratio},{r.witness_ref or ''}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the copy index and the branch-and-bound driver


def _copy_index(copies: set[int], total: int) -> tuple[list[int], int]:
    """Index the copies, each a nonempty bitmask over ``total`` decisions.

    Returns ``keep`` and the number of copies: ``keep[i]``, an int over
    copy numbers, holds the copies that do not use decision i.  Copies are
    numbered in any order, as every search reads only set operations on
    copy numbers.  Each copy ORs its bit into the entry of every decision
    it uses, one OR per used decision.  The graph and hypergraph solvers
    index their listed copies here; the matrix solvers build the index
    from placements instead (:func:`_matrix_index`).
    """
    uses = [0] * total  # per decision, the copies that use it
    bit = 1
    for mask in copies:
        while mask:
            low = mask & -mask
            uses[low.bit_length() - 1] |= bit
            mask ^= low
        bit <<= 1
    return [(bit - 1) ^ used for used in uses], len(copies)


def _tops(keep: list[int], everything: int) -> list[int]:
    """``top[i]``: the copies whose greatest decision is i, read from
    ``keep`` by one backward pass of ANDs; ``everything`` holds every copy."""
    top = [0] * len(keep)
    later = everything  # the copies that use no decision after i
    for i in range(len(keep) - 1, -1, -1):
        rest = later & keep[i]
        top[i] = later ^ rest
        later = rest
    return top


def _branch_and_bound(
    gain: list[int],
    index: tuple[list[int], int],
    most_calls: int | None = None,
    *,
    rest: tuple[int, ...],
    slice_size: int | None = None,
    column_caps: list[int] | None = None,
    value: int | None = None,
) -> tuple[int, int, int, list[int]] | None:
    """The greatest total gain of a set of decisions that holds no copy,
    the first such set of the include-first order, as a bitmask, and the
    number of ``dfs`` calls the search made (the value search).  The
    calls are counted only when ``most_calls`` is given (0 otherwise),
    and a search that needs more returns None.

    With ``value`` given, the search is the first-leaf search: the first
    set of the include-first order that holds no copy and whose total
    gain reaches ``value``, returned with that gain and the calls.  It is
    start 0 run before any suffix is solved, so ``suffix`` is ``rest``,
    the gain of every undecided decision, with floor ``value - 1`` and
    ceiling ``value``.  A leaf stops the search once its gain reaches the
    ceiling; in the value search every ceiling is an upper bound, so that
    leaf's gain equals it.  With ``value`` the greatest gain, the set is
    the value search's.  No leaf reaches a value above the greatest gain,
    and that raises :class:`PostconditionError`.

    The search stops by its return value: ``dfs`` returns True from the
    leaf that reaches the ceiling, the counted call past ``most_calls``
    returns True without a ``dfs``, every call above either returns True
    as soon as its include branch did, and every other return is False.
    No statement of any frame runs after that leaf or that call, so the
    search ends with the value, set, calls and boundary values it had
    there.  The count tells the two apart: once it has passed
    ``most_calls``, the search returns None in place of a result.

    ``index`` is the copy index, ``keep`` and the number of copies
    (:func:`_copy_index`).  ``rest`` is the suffix sums of ``gain``
    (:func:`_rest`): the solvers pass the read-only table of their shape,
    and the search copies it before it writes.  The search derives from
    ``keep`` ``top[i]``, the copies whose greatest decision is i, by one
    backward pass of ANDs (:func:`_tops`), and the value search
    ``starts[i]``, the copies that use no decision before i, by one
    forward pass.  It reads only set operations on copy numbers, so its
    calls, value and set do not depend on how the copies are numbered;
    the images of a matrix pattern share one index that way
    (:func:`_image_index`).

    The search takes the decisions in order, the include branch first,
    and updates its incumbent only on strict improvement.  Its state is
    ``live``, an int over copy numbers: the copies with no excluded
    decision so far.  Every decision before ``idx`` is made, so including
    ``idx`` completes a copy exactly when ``live & top[idx]`` is nonzero,
    and excluding it passes ``live & keep[idx]`` down.  With ``live``
    empty no copy can be completed, so every remaining decision is taken.
    When ``live & keep[idx]`` equals ``live``, no live copy uses ``idx``:
    the exclude subtree has the same live sets and leaves as the include
    subtree, each worth ``gain[idx]`` less, and is searched after it, so
    none of its leaves can strictly beat the incumbent.  The node then
    includes ``idx`` with no exclude branch (the degree-0 reduction of
    hitting-set branch-and-bound), and value and set stay the same.

    The pruning bound is Russian Doll Search (Verfaillie, Lemaitre &
    Schiex 1996).  ``suffix[i]``, the greatest gain decisions i.. can add
    when every earlier one is excluded, bounds what the undecided ones
    add.  It lies between ``suffix[i + 1]`` and ``suffix[i + 1] +
    gain[i]``, so the values are solved from the last decision back by
    this same search, each one stopping at the first leaf that reaches
    that ceiling.  A start whose ``live`` set is empty, because no copy
    lies in decisions i.., gets the sum of their gains without a search.
    The search from decision 0 gives the value and the set.  A node is
    pruned only when it cannot strictly beat the incumbent, so the set is
    the first optimal leaf of the include-first order whatever the bound.

    ``slice_size`` is given only by :func:`_matrix_search`, the matrix
    value search: all gains 1, the decisions the cells of a side-n
    box in lexicographic order, so the axis-1 slice r is decisions
    r·N..(r + 1)·N - 1 with N = ``slice_size`` = n^(d-1), and the
    pattern's first axis-1 slice holds a 1-entry.  A start in slice r,
    with k = n - r slices from r·N on and k ≥ 2, has its ceiling capped
    at ``k * suffix[(r + 1) * N] // (k - 1)``, the one-slice-deletion
    bound of the Kővári–Sós–Turán double count:

    - at a slice boundary the suffix is exactly the extremal value of a
      box with that many slices: a copy's first slice holds a 1-entry, so
      a copy lies in slices r.. exactly when it is a copy in that box;
    - deleting any one of the k slices of an avoider of weight W leaves a
      (k - 1)-slice avoider, of weight at most ``suffix[(r + 1) * N]``;
    - each 1-entry survives k - 1 of the k deletions, so W·(k - 1) ≤
      k·``suffix[(r + 1) * N]``;
    - the suffix never increases with i, so every start inside slice r
      inherits the cap of ``suffix[r * N]``.

    ``column_caps``, read only with ``slice_size``, caps the box of k
    slices once more, at ``column_caps[k - 1]`` for k = 1..len(column_caps),
    the same count across columns.  :func:`_matrix_search` passes it only
    for a 2-d pattern with n·V(k, n - 1) // (n - 1), V(k, n - 1) the
    value of the k × (n - 1) box, from the value search of the same
    pattern at side n - 1:

    - deleting any one of the n columns of a k × n avoider of weight W
      leaves a k × (n - 1) avoider, of weight at most V(k, n - 1);
    - each 1-entry survives n - 1 of the n deletions, so W·(n - 1) ≤
      n·V(k, n - 1);
    - the boxes of k ≤ n - 1 slices are the only ones that side n - 1
      solves, so the first slice, of k = n, keeps only its row cap, and
      the last slice, which has none, gets this one.

    In d ≥ 3 deleting an axis-2 slice of a k × n × ... box leaves a k ×
    (n - 1) × n × ... box, which side n - 1 does not solve, so the cap
    holds in 2-d only; it also needs the side-(n - 1) search, which only
    a ranked row runs (:func:`_cheapest_image`).  Each start takes the
    smaller of the two caps.

    A start i > 0 whose capped ceiling is at most ``suffix[i + 1]`` takes
    that value with no search.  Start 0 still searches, with the capped
    ceiling, and stops at the first optimal leaf, the same set as before.
    So value and set stay the same and the calls can only fall.  The
    value search with ``slice_size`` also hands back the suffix at every
    slice boundary, from the last: the k-th value is that of the box of
    the last k slices, the first 0 and the last the value itself.  Every
    other search hands back an empty list.  The graph and hypergraph
    solvers pass no ``slice_size``; the module docstring says why.

    The same count bounds each slice of the box from both sides.  A start
    in slice r0 has ``later`` = (total - 1 - start) // N slices after r0
    and ``floor`` = ``suffix[(r0 + 1) * N]``, the value of the box without
    its first slice.  Take a leaf of the start's search, an avoider in the
    box of weight W, with weight w_j in slice j:

    - deleting slice j leaves an avoider of a box of ``later`` slices, so
      W - w_j ≤ ``floor``: every slice holds w_j ≥ W - ``floor``;
    - deleting another slice i leaves slice j and ``later`` - 1 slices
      more, each holding at least W - ``floor``, so w_j + (``later`` -
      1)·(W - ``floor``) ≤ ``floor``.

    The search keeps only leaves with W ≥ ``best`` + 1, and both bounds
    are weakest at W = ``best`` + 1.  So with ``least`` = ``best`` + 1 -
    ``floor``, a node that has decided the last cell of a slice returns
    when that slice's weight is below ``least`` or above ``floor`` -
    (``later`` - 1)·``least``.  ``best`` is read live, as it rises during
    a search.  Only nodes with no strictly improving leaf are cut, so
    value and set stay the same and the calls can only fall.  The check
    runs at each slice boundary after the start (``edge``, handed down
    to every call), and only while copies are live: a node with none is
    a leaf that beats the incumbent, and both bounds admit it.  At the
    first boundary, where slice r0 is the whole score, ``score +
    suffix[idx] > best`` already is the lower bound, but not the upper.
    The first-leaf search gets no ``edge``: no suffix is solved there,
    so its ``floor`` would be ``rest``, the cells of the smaller box.
    Its lower bound would then follow from ``score + rest[idx] > best``,
    and its upper bound would need more 1-entries than the box has cells.

    Summed over the k = ``later`` + 1 slices of the box, the lower bound
    gives W ≥ k·(W - ``floor``), the one-slice row cap's inequality.  The
    cap stays because it acts before the search, not at a slice boundary
    inside it: it lowers the start's ceiling, so the search stops at an
    earlier leaf, and a start whose capped ceiling is at most
    ``suffix[i + 1]`` makes no call.  Without it, with the same values
    and sets, the 259 (image, n) matrix rows of the ``extremal_tables``
    benchmark made 50,040 calls instead of 49,481: the J2 rows at n = 4
    and 5 up to 29% more, and the Q23 and Z23 rows at n = 5, which set
    the latency tail, 1-10% more.
    """
    total = len(gain)
    everything = (1 << total) - 1
    keep, count = index
    copies = (1 << count) - 1
    top = _tops(keep, copies)
    suffix = rest  # until the value search copies it
    best = ceiling = calls = 0
    best_set = everything
    floor = later = 0  # the slice bound of the current start's box

    def dfs(idx: int, score: int, live: int, chosen: int, edge: int) -> bool:
        nonlocal best, best_set
        while score + suffix[idx] > best:
            if not live:
                best = score + rest[idx]
                best_set = chosen | everything >> idx << idx
                return best >= ceiling
            if idx == edge:  # the slice that ends at idx is decided
                least = best + 1 - floor
                weight = (chosen >> idx - slice_size).bit_count()
                if weight < least or weight + (later - 1) * least > floor:
                    return False
                edge += slice_size
            rest_live = live & keep[idx]
            if rest_live == live:  # no live copy uses idx: include it only
                score += gain[idx]
                chosen |= 1 << idx
            else:
                if not live & top[idx]:
                    if descend(idx + 1, score + gain[idx], live, chosen | 1 << idx, edge):
                        return True
                live = rest_live  # the exclude branch, as a loop
            idx += 1
        return False

    def counted(idx: int, score: int, live: int, chosen: int, edge: int) -> bool:
        nonlocal calls
        calls += 1
        return calls > most_calls or dfs(idx, score, live, chosen, edge)

    # the count costs an uncounted search nothing; its calls stay 0, within a budget of 0
    descend, most_calls = (dfs, 0) if most_calls is None else (counted, most_calls)
    if value is not None:  # the first-leaf search: start 0, suffix still rest
        best, ceiling = value - 1, value
        if not descend(0, 0, copies, 0, -1):
            raise PostconditionError(
                f"no set of decisions that holds no copy reaches the value {value}"
            )
        return None if calls > most_calls else (best, best_set, calls, [])
    # starts[i]: the copies that use no decision before i
    starts = [copies]
    for i in range(total - 1):
        starts.append(starts[-1] & keep[i])
    suffix = list(rest)  # final for every start with no copy; rest may be shared
    caps = column_caps if slice_size and column_caps else []
    # no row cap and no slice bound in the last slice
    cap = caps[0] if caps else rest[0]
    edge = -1
    for start in range(total - 1, -1, -1):
        if slice_size and (start + 1) % slice_size == 0 and start + 1 < total:
            # start ends slice r, and k - 1 slices follow it
            edge = start + 1
            later = (total - edge) // slice_size
            floor = suffix[edge]
            cap = (later + 1) * floor // later
            if later < len(caps):
                cap = min(cap, caps[later])
        if not starts[start]:
            continue
        ceiling = min(suffix[start + 1] + gain[start], cap)
        if start and ceiling <= suffix[start + 1]:
            suffix[start] = suffix[start + 1]
            continue
        # start 0 keeps the first leaf of the optimal gain, maybe suffix[1]
        best = suffix[1] - 1 if start == 0 else suffix[start + 1]
        if descend(start, 0, starts[start], 0, edge) and calls > most_calls:
            return None
        suffix[start] = best
    return suffix[0], best_set, calls, suffix[::-slice_size] if slice_size else []


def _rest(gain: Sequence[int]) -> tuple[int, ...]:
    """``rest[i]``: the total gain of decisions i.., with ``rest[len(gain)]`` 0."""
    rest = [0] * (len(gain) + 1)
    for i in range(len(gain) - 1, -1, -1):
        rest[i] = rest[i + 1] + gain[i]
    return tuple(rest)


Gains = tuple[tuple[int, ...], tuple[int, ...]]  # gains and their suffix sums (_rest)


# keyed by the decision count only: a matrix row has at most MAX_CELLS
# cells and a hypergraph row at most MAX_GRAPH_CANDIDATES candidates
@cache
def _unit_gains(total: int) -> Gains:
    """Gain 1 for each of ``total`` decisions, with its suffix sums
    (:func:`_rest`), made once per count and shared read-only."""
    gain = (1,) * total
    return gain, _rest(gain)


# ---------------------------------------------------------------------------
# matrix solvers


def _line_choices(extent: int, used: list[int], n: int) -> list[list[int]]:
    """Each placement of one pattern axis of this extent on a side-n host
    axis, as the host line (0-based) of each of the pattern's ``used``
    lines, the lines that hold a 1-entry, increasing.

    A copy takes every pattern line to a host line, in order, but its
    cells show only where the used lines go, so two placements that
    differ only in an empty line make the same copy.  Each placement here
    is one distinct set of host lines: its lines keep the gaps the empty
    lines need, so h_i = y_i + used[i] - i with y increasing in
    [0, n - extent + len(used))."""
    shift = [a - i for i, a in enumerate(used)]
    return [
        [y + s for y, s in zip(ys, shift)]
        for ys in combinations(range(n - extent + len(used)), len(used))
    ]


def _matrix_index(pattern: BinaryMatrix, n: int) -> tuple[list[int], int]:
    """The copy index of the pattern's copies in a side-n host, built from
    the placements without listing a copy's mask.

    A copy is a placement of axes 1.. (:func:`_line_choices`), which
    puts each 1-entry on a cell of its axis-0 slab of N = n^(d-1) cells,
    and a choice of host slabs for the pattern's used axis-0 slabs.  With
    R slab choices, copy p·R + j takes placement p and slab choice j, so
    every copy is numbered once.  Host cell r·N + c is used by copy
    p·R + j exactly when some pattern slab s holds a 1-entry that p puts
    on slab cell c and j puts on host slab r.  ``spread[s][c]`` holds bit
    p·R of each such p, and ``at[s][r]`` bit j of each such j, below 2^R,
    so their product sets exactly the bits p·R + j, with no carry."""
    ones = pattern.sorted_ones()
    used = [sorted({one[axis] - 1 for one in ones}) for axis in range(pattern.d)]
    slots = [[used[axis].index(one[axis] - 1) for one in ones] for axis in range(pattern.d)]
    placed = [[0] * len(ones)]  # per placement so far, the slab cell of each 1-entry
    for axis in range(1, pattern.d):
        sels = _line_choices(pattern.extents[axis], used[axis], n)
        placed = [
            [c * n + sel[i] for c, i in zip(cells, slots[axis])]
            for cells in placed
            for sel in sels
        ]
    choices = _line_choices(pattern.extents[0], used[0], n)
    width = len(choices)
    size = n ** (pattern.d - 1)
    spread = [[0] * size for _ in used[0]]
    for p, cells in enumerate(placed):
        bit = 1 << p * width
        for c, s in zip(cells, slots[0]):
            spread[s][c] |= bit
    at = [[0] * n for _ in used[0]]
    for j, rows in enumerate(choices):
        for s, r in enumerate(rows):
            at[s][r] |= 1 << j
    count = len(placed) * width
    everything = (1 << count) - 1
    keep = []
    for r in range(n):
        for c in range(size):
            uses = 0
            for s in range(len(used[0])):
                uses |= at[s][r] * spread[s][c]
            keep.append(everything ^ uses)
    return keep, count


Symmetry = tuple[tuple[int, ...], int]  # an axis permutation and a reversal mask


def _moved(
    coord: tuple[int, ...], extents: tuple[int, ...], symmetry: Symmetry
) -> tuple[int, ...]:
    """The image of a cell of a box with these extents under the symmetry:
    axis i of the image is axis ``perm[i]`` of the box, reversed when bit
    i of the mask is set."""
    perm, mask = symmetry
    return tuple(
        extents[a] + 1 - coord[a] if mask >> i & 1 else coord[a] for i, a in enumerate(perm)
    )


def _matrix_images(pattern: BinaryMatrix) -> list[tuple[BinaryMatrix, Symmetry]]:
    """The distinct images of the pattern under axis permutations and
    reversals, each with the first symmetry that makes it, the pattern
    first, then in order of the permutation (``itertools.permutations``)
    and of the reversed axes as a bitmask."""
    images = {}  # a dict keeps the first of equal images, in order
    for perm in permutations(range(pattern.d)):
        extents = tuple(pattern.extents[a] for a in perm)
        for mask in range(1 << pattern.d):
            ones = frozenset(_moved(one, pattern.extents, (perm, mask)) for one in pattern.ones)
            images.setdefault(BinaryMatrix(extents, ones), (perm, mask))
    return list(images.items())


# keyed by (d, side, symmetry) only, never by the pattern: with the cell
# limit, the ranking gate reads 2-d tables at sides 4-8 and 3-d ones at
# sides 3 and 4, at most 5 * 8 + 2 * 48 = 136 of them
@cache
def _cell_order(d: int, n: int, symmetry: Symmetry) -> tuple[int, ...]:
    """``order[i]``: the cell of the side-n cube that the symmetry sends
    to cell i, cells numbered in lexicographic order.

    The symmetry sends each copy of a pattern, as a set of cells, to a
    copy of its image, one to one, so the image's copy index is the
    pattern's read through this table (:func:`_image_index`)."""
    cells = list(product(range(1, n + 1), repeat=d))
    number = {cell: i for i, cell in enumerate(cells)}
    order = [0] * len(cells)
    for i, cell in enumerate(cells):
        order[number[_moved(cell, (n,) * d, symmetry)]] = i
    return tuple(order)


def _image_index(
    index: tuple[list[int], int], d: int, n: int, symmetry: Symmetry
) -> tuple[list[int], int]:
    """The copy index of an image's copies in a side-n host, from the
    pattern's: copy j of the image is the image of the pattern's copy j,
    and it avoids cell i exactly when the pattern's avoids ``order[i]``."""
    keep, count = index
    return [keep[cell] for cell in _cell_order(d, n, symmetry)], count


def _matrix_search(
    pattern: BinaryMatrix,
    n: int,
    index: tuple[list[int], int],
    most_calls: int | None = None,
    value: int | None = None,
    boxes: list[int] | None = None,
) -> tuple[int, int, int, list[int]] | None:
    """:func:`_branch_and_bound` over the n^d cells of a side-n host in
    lexicographic order, each of gain 1, with ``index`` the copy index of
    the pattern's copies: the value search, or with ``value`` the
    first-leaf search.

    The value search gets ``slice_size`` N = n^(d-1), the cells of one
    axis-1 slice, only when the pattern's first axis-1 slice holds a
    1-entry.  Otherwise a copy may put that slice before the box, so a
    suffix at a slice boundary is not the value of a box: the 3x2x3
    pattern (2,1,2)(2,1,3)(3,1,2)(3,2,1) at n = 3 has suffix 16 at the
    second slice and value 25 > 3·16 // 2.

    ``boxes`` are the boundary values of the same pattern's value search
    at side n - 1, ``boxes[k]`` the value of its box of k slices.  A 2-d
    value search gets from them the column-deletion cap n·``boxes[k]`` //
    (n - 1) for each box of k = 1..n-1 slices; :func:`_branch_and_bound`
    says why it holds, and why only in 2-d.
    """
    gain, rest = _unit_gains(n**pattern.d)
    if value is not None:
        return _branch_and_bound(gain, index, most_calls, rest=rest, value=value)
    slice_size = n ** (pattern.d - 1) if min(pattern.ones)[0] == 1 else None
    caps = [n * v // (n - 1) for v in boxes[1:]] if boxes and pattern.d == 2 else None
    return _branch_and_bound(
        gain, index, most_calls, rest=rest, slice_size=slice_size, column_caps=caps
    )


def _cheapest_image(
    pattern: BinaryMatrix, n: int
) -> tuple[BinaryMatrix, Symmetry | None, list[int]]:
    """The image of the pattern to take a side-n row's value from, the
    symmetry that makes it (None for the pattern itself), and the
    boundary values of its value search at side n - 1: empty below the
    gate, where no such search runs, and when the image's first axis-1
    slice is empty, so that its search has no slices.

    Each image's avoiders are the images of the pattern's, so every image
    has the same value, but the search can cost 70x more on one image
    than on another.  A row with fewer than ``RANKED_COPIES`` copies
    takes the pattern itself, and lists no image.  Otherwise every
    distinct image is solved at side n - 1 by the value search, counting
    its ``dfs`` calls, and the one with the fewest wins, ties going to
    the earlier in :func:`_matrix_images` order, the pattern first.  The
    pattern's copies at side n - 1 are indexed once, and every
    image reads that index through its cell order (:func:`_image_index`):
    the image's copies are the pattern's, decided in another order.  An
    image other than the pattern also needs the first-leaf search over
    the pattern's copies, so it is taken only if its calls and that
    search's, at n - 1, stay below the pattern's own.  The pattern's own
    search sets that budget, so it always runs to the end, however slow
    it is: at n = 7 the L-shape given as (1,2)(2,1)(2,2) makes 2,987,114
    calls there, and the image it picks 32,315.  Only the searches after
    it stop once they can no longer win: each returns None past the
    calls it has left, and then the image is skipped, or, for the
    first-leaf search, the pattern is kept.  The winner's search ran to
    the end, so its boundary values are exact: ``boxes[k]`` is the value
    of the box of k axis-1 slices of side n - 1, which caps the 2-d value
    search at side n (:func:`_matrix_extremal`).
    """
    if binomial_product([(n, k) for k in pattern.extents], RANKED_COPIES) < RANKED_COPIES:
        return pattern, None, []
    index = _matrix_index(pattern, n - 1)
    value, _, own, own_boxes = _matrix_search(pattern, n - 1, index, sys.maxsize)
    cheapest, fewest, boxes, turned = pattern, own, own_boxes, None
    for image, symmetry in _matrix_images(pattern)[1:]:
        image_index = _image_index(index, pattern.d, n - 1, symmetry)
        found = _matrix_search(image, n - 1, image_index, fewest - 1)
        if found is None:  # over budget: it cannot win
            continue
        _, _, calls, image_boxes = found
        # no ranked row has an extent n under the cell limit, so every
        # image has copies at n - 1 and its search makes a call
        if calls < fewest:
            cheapest, fewest, boxes, turned = image, calls, image_boxes, symmetry
    if cheapest is not pattern:
        if _matrix_search(pattern, n - 1, index, own - fewest - 1, value=value) is None:
            return pattern, None, own_boxes
    return cheapest, turned, boxes


def _weighed_matrix(value: int, witness: BinaryMatrix) -> SearchCertificate:
    """The certificate of a value and its witness, made only once the
    witness's weight equals the value."""
    if witness.weight != value:
        raise PostconditionError(
            f"witness weight {witness.weight} does not equal value {value}"
        )
    return SearchCertificate(value, witness, True)


def _certify_matrix(cert: SearchCertificate, pattern: BinaryMatrix) -> SearchCertificate:
    """The certificate, once its witness has passed the avoidance re-check."""
    if matrix_contains(cert.witness, pattern) is not None:
        raise PostconditionError("witness fails the avoidance re-check")
    return cert


def _solve_matrix_extremal(pattern: BinaryMatrix, n: int) -> SearchCertificate:
    """The most 1-entries of a side-n host avoiding the pattern, with the
    first optimal host of the include-first order over the cells in
    lexicographic order as witness.  A pattern with an extent above n
    never fits: every cell is taken, and the row returns its shape's
    shared certificate of the full box (:func:`_full_box`), with no copy
    index, no search and no new record.  A pattern with no 1-entry that
    fits is in every host, which is invalid input.  Otherwise
    :func:`_matrix_extremal` solves the row, and its witness is weighed
    by :func:`_weighed_matrix`.  Every certificate is re-checked by
    :func:`_certify_matrix`."""
    d = pattern.d
    if n < 1:
        raise InputError(f"n must be positive, got {int_text(n)}")
    if n**d > MAX_CELLS:
        shape = "x".join([int_text(n)] * d)
        raise CapacityError(f"{shape} exceeds the cell limit {MAX_CELLS}")
    if max(pattern.extents) > n:  # never fits
        return _certify_matrix(_full_box(n, d), pattern)
    if not pattern.ones:
        raise InputError(
            "pattern weight 0: every matrix of this size contains it, "
            "the extremal value is undefined"
        )
    value, ones = _matrix_extremal(pattern, n)
    cert = _weighed_matrix(value, BinaryMatrix((n,) * d, ones))
    return _certify_matrix(cert, pattern)


# keyed by (n, d): the cell limit admits 13 keys with n >= 2, but n = 1
# admits every d, so it keeps 32 entries, those 13 and 19 at n = 1
@lru_cache(maxsize=32)
def _full_box(n: int, d: int) -> SearchCertificate:
    """The certificate of every row whose pattern does not fit: the value
    n^d and the side-n d-matrix with every cell a 1-entry, weighed and
    made once per shape and shared read-only.  A failed weighing raises,
    so nothing is kept."""
    box = BinaryMatrix((n,) * d, frozenset(product(range(1, n + 1), repeat=d)))
    return _weighed_matrix(n**d, box)


def _matrix_extremal(pattern: BinaryMatrix, n: int) -> tuple[int, frozenset]:
    """The value and the witness's 1-entries of a side-n row of a pattern
    with a 1-entry that fits.

    A pattern of d > 2 with an extent-1 axis lies in one slice across
    that axis, so a host avoids it exactly when each of its n slices
    avoids the pattern without that axis.  The value is n times the
    reduced one, and the first optimal host of the include-first order
    repeats the reduced witness in every slice: the cells of one slice
    keep their lexicographic order, so the first cell where another
    optimal host differs is one where the reduced witness holds a
    1-entry.  Otherwise the value search runs on :func:`_cheapest_image`,
    through the pattern's copy index read in the image's cell order, and
    when that image is not the pattern itself, the first-leaf search over
    the pattern's copies finds the host."""
    d = pattern.d
    if d > 2 and 1 in pattern.extents:
        axis = pattern.extents.index(1)
        reduced = BinaryMatrix(
            pattern.extents[:axis] + pattern.extents[axis + 1 :],
            frozenset(one[:axis] + one[axis + 1 :] for one in pattern.ones),
        )
        value, ones = _matrix_extremal(reduced, n)
        slices = range(1, n + 1)
        return n * value, frozenset(c[:axis] + (x,) + c[axis:] for c in ones for x in slices)
    image, symmetry, boxes = _cheapest_image(pattern, n)
    index = _matrix_index(pattern, n)
    image_index = index if symmetry is None else _image_index(index, d, n, symmetry)
    value, chosen, _, _ = _matrix_search(image, n, image_index, boxes=boxes)
    if symmetry is not None:
        chosen = _matrix_search(pattern, n, index, value=value)[1]
    cells = product(range(1, n + 1), repeat=d)
    return value, frozenset(cell for i, cell in enumerate(cells) if chosen >> i & 1)


def ex_matrix(pattern: BinaryMatrix, n: int) -> SearchCertificate:
    """Maximum 1-entries of an n x n matrix avoiding the 2-dimensional pattern."""
    if pattern.d != 2:
        raise InputError(f"ex_matrix needs a 2-dimensional pattern, got d={pattern.d}")
    return _solve_matrix_extremal(pattern, n)


def f_multi(pattern: BinaryMatrix, d: int, n: int) -> SearchCertificate:
    """Maximum 1-entries of a side-length-n d-matrix avoiding the pattern."""
    if d != pattern.d:
        raise InputError(f"d={int_text(d)} does not match pattern dimension {pattern.d}")
    return _solve_matrix_extremal(pattern, n)


# ---------------------------------------------------------------------------
# graph and hypergraph solvers


def _weighed_hypergraph(value: int, witness: OrderedHypergraph, mode: str) -> SearchCertificate:
    """The certificate of a value and its witness, made only once the
    witness's edge count (mode ``edges``) or weight equals the value."""
    achieved = witness.edge_count if mode == "edges" else witness.weight
    if achieved != value:
        raise PostconditionError(f"witness achieves {achieved}, value is {value}")
    return SearchCertificate(value, witness, True)


def _certify_hypergraph(cert: SearchCertificate, pattern: OrderedHypergraph) -> SearchCertificate:
    """The certificate, once its witness has passed the avoidance re-check."""
    if hypergraph_contains(cert.witness, pattern) is not None:
        raise PostconditionError("witness fails the avoidance re-check")
    return cert


# keyed by the range and the limit: a raise keeps nothing, so each entry
# is an admitted range of at most MAX_GRAPH_CANDIDATES edges
@lru_cache(maxsize=256)
def _candidates(
    n: int, smallest: int, largest: int, limit: int
) -> tuple[
    tuple[Edge, ...], tuple[int, ...], int, Gains, tuple[SearchCertificate, SearchCertificate]
]:
    """The tables of the edges on [n] of sizes ``smallest`` to
    ``largest``, the candidates of a hypergraph row: the edges in
    lexicographic order; ``holding[v - 1]``, the candidates holding vertex
    v, as a bitmask over the candidates; the largest candidate size, 0
    with none; the weight mode's gains, each candidate's size, with
    their suffix sums; and the certificates of every row whose pattern
    has no copy, scored by edges and by weight: one host of every
    candidate, weighed in each mode.  They depend on the range only,
    never on the pattern, so they are made once per process and shared
    read-only by every row with this range.

    The edges are counted first, one size at a time by
    :func:`~patternex.structures.binomial_product`, and more than
    ``limit`` of them raise :class:`CapacityError` before any is listed.
    A raise is never cached, so a refused range is counted again on every
    call, at most ``limit + 1`` small steps whatever n, and a full host
    that fails its weighing is built and weighed again."""
    sizes = range(smallest, min(largest, n) + 1)
    count = 0
    for size in sizes:
        count += binomial_product(((n, size),), limit - count)
        if count > limit:
            raise CapacityError(
                f"at least {count} candidate edges of size at most {int_text(largest)} "
                f"on {int_text(n)} vertices exceed the limit {limit}"
            )
    edges = tuple(sorted(e for size in sizes for e in combinations(range(1, n + 1), size)))
    holding = [0] * n
    for i, edge in enumerate(edges):
        for v in edge:
            holding[v - 1] |= 1 << i
    gain = tuple(map(len, edges))
    rest = _rest(gain)
    full = OrderedHypergraph(n, frozenset(edges))
    by_edges = _weighed_hypergraph(len(edges), full, "edges")
    by_weight = _weighed_hypergraph(rest[0], full, "weight")
    return edges, tuple(holding), max(gain, default=0), (gain, rest), (by_edges, by_weight)


def _hyper_copies(
    holding: tuple[int, ...], widest: int, pattern: OrderedHypergraph
) -> set[int]:
    """Each copy of the pattern among the candidate edges, as a bitmask over
    the candidates: for each increasing vertex map f, each injective choice
    of a candidate containing f(e) for every pattern edge e.  The empty
    mask is a copy when the pattern has no edges and fits.  ``holding``
    and ``widest`` are the host's tables from :func:`_candidates`: per
    host vertex the candidates holding it, and the largest candidate size.

    One loop lists the maps, as the ``pattern.n``-subsets of [n], and
    expands each map's choices edge by edge.  The solvers' candidates are
    every edge on [n] of a range of sizes, so when every pattern edge fits
    the largest size, each f(e) is itself a candidate and every map has a
    choice (f(e) for each e): cutting the maps that share a prefix with no
    choice would never cut one.  When some pattern edge is larger than
    every candidate, no map has a choice, and one size test returns no
    copies before the loop.
    """
    pn = pattern.n
    if pn > len(holding):  # no increasing map
        return set()
    if max(map(len, pattern.edges), default=0) > widest:
        return set()  # that edge lies in no candidate
    edges = [[u - 1 for u in edge] for edge in pattern.sorted_edges()]
    copies: set[int] = set()
    for f in combinations(holding, pn):  # f[u - 1]: the candidates holding u's image
        chosen = [0]
        for edge in edges:
            fits = -1
            for u in edge:
                fits &= f[u]
            chosen = [c | b for c in chosen for b in _bits(fits & ~c)]
        copies.update(chosen)
    return copies


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, least first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _size_cap(edge_cap: int | None, default: int) -> int:
    if edge_cap is None:
        return default
    if edge_cap < 1:
        raise InputError(f"edge size cap must be >= 1, got {int_text(edge_cap)}")
    return edge_cap


def _solve_hyper_extremal(
    pattern: OrderedHypergraph, n: int, mode: str, smallest: int, largest: int, limit: int
) -> SearchCertificate:
    """The greatest edge count or weight of a host on [n] that avoids the
    pattern, its edges drawn from the candidates of sizes ``smallest`` to
    ``largest``, with the first optimal host of the include-first order as
    witness.  A pattern with no copy among the candidates takes every
    candidate: the row returns the range's shared certificate of its
    full host in this mode.  Otherwise the decisions of
    :func:`_branch_and_bound` are the candidates, each of gain 1 or its
    size, its copies are the pattern's copies, and its witness is weighed
    by :func:`_weighed_hypergraph`.  Every certificate is re-checked by
    :func:`_certify_hypergraph`."""
    if n < 1:
        raise InputError(f"n must be positive, got {int_text(n)}")
    candidates, holding, widest, sized, full = _candidates(n, smallest, largest, limit)
    if not pattern.edges and pattern.n <= n:
        raise InputError(
            "pattern with no edges is contained in every host on this many "
            "vertices, the extremal value is undefined"
        )
    copies = _hyper_copies(holding, widest, pattern)
    if not copies:
        return _certify_hypergraph(full[mode == "weight"], pattern)
    gain, rest = sized if mode == "weight" else _unit_gains(len(candidates))
    index = _copy_index(copies, len(candidates))
    value, chosen, _, _ = _branch_and_bound(gain, index, rest=rest)
    edges = frozenset(e for i, e in enumerate(candidates) if chosen >> i & 1)
    cert = _weighed_hypergraph(value, OrderedHypergraph(n, edges), mode)
    return _certify_hypergraph(cert, pattern)


def gex_graph(pattern: OrderedHypergraph, n: int) -> SearchCertificate:
    """Maximum edges of an ordered graph on [n] avoiding the 2-uniform pattern."""
    if any(len(e) != 2 for e in pattern.edges):
        raise InputError("gex needs a 2-uniform pattern")
    return _solve_hyper_extremal(pattern, n, "edges", 2, 2, MAX_GRAPH_CANDIDATES)


def exe_hyper(
    pattern: OrderedHypergraph, n: int, *, edge_cap: int | None = None
) -> SearchCertificate:
    """Maximum edge count of a hypergraph on [n] avoiding the pattern.

    Candidate edges are restricted to size <= cap (default: the pattern's
    vertex count), mirroring the edge-truncation reduction; ``edge_cap=n``
    searches the full edge universe on tiny n.
    """
    cap = _size_cap(edge_cap, max(pattern.n, 1))
    return _solve_hyper_extremal(pattern, n, "edges", 1, cap, MAX_HYPER_CANDIDATES)


def exi_hyper(
    pattern: OrderedHypergraph, n: int, *, edge_cap: int | None = None
) -> SearchCertificate:
    """Maximum weight (sum of edge sizes) of a hypergraph on [n] avoiding the pattern.

    Same candidate-edge cap semantics as :func:`exe_hyper`; with a cap the
    value is the maximum over hosts whose edges respect the cap.
    """
    cap = _size_cap(edge_cap, max(pattern.n, 1))
    return _solve_hyper_extremal(pattern, n, "weight", 1, cap, MAX_HYPER_CANDIDATES)


def count_avoiders(
    pattern: OrderedHypergraph, n: int, *, edge_size_cap: int | None = None
) -> int:
    """Exact number of hypergraphs on [n] avoiding the pattern.

    Without a cap the full edge universe is enumerated; its 2^n - 1
    candidate edges keep it under the candidate limit up to n = 4, so
    larger n must pass ``edge_size_cap`` (the count is then over
    hypergraphs whose edges respect the cap).  Enumeration prunes
    both ways: a branch that already contains the pattern contributes
    nothing, and a branch whose full completion still avoids contributes
    a power of two without further splitting.  Both tests read the copy
    index: including a candidate completes a copy when ``live & top`` is
    nonzero, and the full completion avoids when ``live`` is empty.  A
    candidate that no live copy uses (``live & keep`` equals ``live``)
    leaves both branches the same completions, so one branch is walked
    and its count doubled.
    """
    if n < 0:
        raise InputError(f"n must be nonnegative, got {int_text(n)}")
    cap = _size_cap(edge_size_cap, n)
    candidates, holding, widest, _, _ = _candidates(n, 1, cap, MAX_HYPER_CANDIDATES)
    copies = _hyper_copies(holding, widest, pattern)
    if not copies:  # the walk gives the same, but a zero-copy row runs ~50% slower
        return 1 << len(candidates)
    if 0 in copies:
        return 0  # the empty host already contains the pattern
    keep, count = _copy_index(copies, len(candidates))
    everything = (1 << count) - 1
    top = _tops(keep, everything)

    def walk(idx: int, live: int) -> int:
        # live: the copies with no excluded candidate before idx
        if not live:
            return 1 << (len(candidates) - idx)
        rest_live = live & keep[idx]
        if rest_live == live:  # no live copy uses idx: both branches agree
            return walk(idx + 1, live) << 1
        total = walk(idx + 1, rest_live)
        if not live & top[idx]:
            total += walk(idx + 1, live)
        return total

    return walk(0, everything)
