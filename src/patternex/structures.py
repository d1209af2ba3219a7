"""Core combinatorial objects: sparse 0-1 matrices and ordered hypergraphs.

Conventions used throughout the package:

* coordinates and vertices are 1-indexed,
* a d-dimensional 0-1 matrix is stored sparsely as the set of coordinates
  of its 1-entries together with the per-axis extents,
* hypergraph edges are canonicalized as strictly increasing vertex tuples,
* every object is immutable and hashable, so values can be shared freely
  between concurrent workers.

Every matrix and hypergraph is checked when it is built.  A shape whose
valid cells or edges hold at most ``MAX_CACHED_ENTRIES`` ints accepts
its 1-entries or edges with one subset test against a cached set of
them; anything else, and every input that test refuses, goes through
the per-entry check, the only one that raises.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, product
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import InputError, int_text

Coord = tuple[int, ...]
Edge = tuple[int, ...]

# The most ints (members times their length) in one cached set of the
# valid cells of a box or the valid edges on [n] for a set of edge sizes;
# counting members alone would let the one cell of a box of a million
# axes of extent 1 cache a tuple of a million ints.  It covers every shape of the tests and the benchmark: a 12x12 host
# (288), the 364 triples on [14] (1,092), a 64-cell witness (at most
# 384).  Each cache keeps its 32 most recently used sets.  The largest
# set in bytes, the 2,048 one-vertex edges on [2048], takes 0.23 MiB
# (tracemalloc), so the two caches hold at most about 16 MiB.
MAX_CACHED_ENTRIES = 2048


@lru_cache(maxsize=32)
def _valid_cells(extents: tuple[int, ...]) -> frozenset[Coord]:
    return frozenset(product(*(range(1, n + 1) for n in extents)))


@lru_cache(maxsize=32)
def _valid_edges(n: int, sizes: frozenset[int]) -> frozenset[Edge]:
    return frozenset(chain.from_iterable(combinations(range(1, n + 1), k) for k in sizes))


def _cached_cells(extents: tuple[int, ...]) -> frozenset[Coord] | None:
    """The valid cells of positive ``extents``, or None when an extent is
    not an int or the cells hold more than ``MAX_CACHED_ENTRIES`` ints."""
    entries = len(extents)
    for n in extents:
        if type(n) is not int:
            return None
        entries *= n
        if entries > MAX_CACHED_ENTRIES:
            return None
    return _valid_cells(tuple(extents))


def binomial_product(pairs: Sequence[tuple[int, int]], cap: int) -> int:
    """The product of C(n, k) over the (n, k) pairs, 0 when some k > n,
    counted without building anything, and exact when it is at most
    ``cap``.

    Each binomial is multiplied in one factor at a time, up from C(n, 0),
    and the count stops at the first partial product past ``cap``.  A
    factor n above cap + 1 counts as cap + 1: the product passes the cap
    there either way.  The partial products only grow, so a count past
    the cap is a lower bound on the product, at most cap * (cap + 1) for
    a positive cap, and it costs a few small multiplications whatever n
    and k: C(1000000, 500000), 10^6 bits long, took 6 s to compute and
    could not be printed in a message, and neither could C(10^5000, 1).  The
    package's limits on windows, placements, candidate edges and cached
    edges are all checked on this count, before what it counts is built.
    """
    for n, k in pairs:
        if k > n:
            return 0
    product = 1
    for n, k in pairs:
        # product * C(n, i) * (n - i) is divisible by i + 1; a factor is
        # cut only at i = 0, as C(n, 1) = n then passes the cap
        for i in range(min(k, n - k)):
            if product > cap:
                return product
            product = product * min(n - i, cap + 1) // (i + 1)
    return product


def _cached_edges(n: int, edges) -> frozenset[Edge] | None:
    """The valid edges on [n] of the sizes in ``edges``, or None when n
    is not an int, there is no edge, an edge is empty or longer than n,
    or the valid edges hold more than ``MAX_CACHED_ENTRIES`` ints, as
    counted by :func:`binomial_product`."""
    if type(n) is not int:
        return None
    try:
        sizes = frozenset(map(len, edges))
    except TypeError:  # an edge with no length: the per-entry check raises
        return None
    if not sizes:
        return None
    entries = 0
    for k in sizes:
        if not 0 < k <= n:
            return None
        entries += k * binomial_product(((n, k),), MAX_CACHED_ENTRIES)
        if entries > MAX_CACHED_ENTRIES:
            return None
    return _valid_edges(n, sizes)


class _Record:
    """An immutable record whose fields are the names in its class's
    ``__slots__``.

    Every record is built by this ``__init__``: it binds the positional
    and keyword arguments to the fields in ``__slots__`` order, fills the
    trailing fields the arguments leave out from the class's
    ``_defaults`` (a dict default is copied, so no two records share it),
    raises ``TypeError`` for a missing, repeated or unknown argument, and
    then runs the class's ``_check``, which validates the fields.

    A record compares and hashes by class and fields, prints as
    ``Name(field=value, ...)``, refuses assignment and deletion, and
    pickles and copies through ``__init__``.  The records are not
    dataclasses because the decorator generates and compiles about
    0.35 ms of code per class at every import.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        # the slot descriptors' setters: calling them directly skips the
        # refusing __setattr__ and the name lookup of object.__setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        # the fields as one tuple, for ==, hash and pickle, read by one C
        # call; attrgetter of one name returns the bare value
        get = attrgetter(*cls.__slots__)
        cls._fields = staticmethod(get if len(cls.__slots__) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)
        self._check()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call that is not all positional."""
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        values = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                value = cls._defaults[name]
                values.append(value.copy() if type(value) is dict else value)
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        for name in kwargs:
            if name in names:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
        return values

    def _check(self) -> None:
        """Validate the fields; a record without a check accepts any values."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields(self)


class BinaryMatrix(_Record):
    """A d-dimensional 0-1 matrix on [n_1] x ... x [n_d], d >= 2.

    Only the coordinates of 1-entries are stored; extents may differ per
    axis even though the extremal solvers work on cubic shapes.
    """

    __slots__ = ("extents", "ones")

    def _check(self) -> None:
        extents, ones = self.extents, self.ones
        if len(extents) < 2:
            raise InputError(f"matrix dimension must be >= 2, got {len(extents)}")
        if any(n < 1 for n in extents):
            raise InputError(f"extents must be positive, got {extents}")
        valid = _cached_cells(extents)
        if valid is not None and valid.issuperset(ones):
            return
        d = len(extents)
        for coord in ones:
            if len(coord) != d:
                raise InputError(f"coordinate {coord} has length {len(coord)}, expected {d}")
            for axis, (c, n) in enumerate(zip(coord, extents), start=1):
                if not 1 <= c <= n:
                    raise InputError(
                        f"coordinate {coord} out of range on axis {axis} (extent {n})"
                    )

    @property
    def d(self) -> int:
        return len(self.extents)

    @property
    def weight(self) -> int:
        """Number of 1-entries."""
        return len(self.ones)

    def sorted_ones(self) -> list[Coord]:
        """1-entry coordinates in lexicographic order (deterministic iteration)."""
        return sorted(self.ones)

    def __repr__(self) -> str:
        shape = "x".join(str(n) for n in self.extents)
        return f"BinaryMatrix({shape}, weight={self.weight})"


class OrderedHypergraph(_Record):
    """An ordered hypergraph on vertices 1..n with distinct nonempty edges."""

    __slots__ = ("n", "edges")

    def _check(self) -> None:
        n, edges = self.n, self.edges
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {int_text(n)}")
        valid = _cached_edges(n, edges)
        if valid is not None and valid.issuperset(edges):
            return
        for edge in edges:
            if len(edge) == 0:
                raise InputError("empty edges are not allowed")
            if any(edge[i] >= edge[i + 1] for i in range(len(edge) - 1)):
                raise InputError(f"edge {edge} is not strictly increasing")
            if edge[0] < 1 or edge[-1] > n:
                raise InputError(f"edge {edge} out of range for n={n}")

    @property
    def weight(self) -> int:
        """Sum of edge sizes."""
        return sum(len(e) for e in self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"OrderedHypergraph(n={self.n}, edges={self.edge_count})"


class PermutationSpec(_Record):
    """d-1 permutations of [k] defining a d-permutation matrix of length k."""

    __slots__ = ("k", "perms")

    def _check(self) -> None:
        if self.k < 1:
            raise InputError(f"length must be positive, got {int_text(self.k)}")
        if not self.perms:
            raise InputError("at least one permutation is required (d >= 2)")
        for perm in self.perms:
            if sorted(perm) != list(range(1, self.k + 1)):
                raise InputError(f"{perm} is not a permutation of [{self.k}]")

    @property
    def d(self) -> int:
        return len(self.perms) + 1


class PartsSpec(_Record):
    """Boundaries 0 = k_0 < k_1 < ... < k_d = n splitting [n] into d parts.

    Part i is the vertex interval [k_{i-1}+1, k_i].
    """

    __slots__ = ("boundaries",)

    def _check(self) -> None:
        b = self.boundaries
        if len(b) < 2 or b[0] != 0:
            raise InputError(f"boundaries must start at 0 and contain >= 1 part, got {b}")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise InputError(f"boundaries must be strictly increasing, got {b}")

    @property
    def d(self) -> int:
        return len(self.boundaries) - 1

    @property
    def n(self) -> int:
        return self.boundaries[-1]

    @property
    def sizes(self) -> tuple[int, ...]:
        b = self.boundaries
        return tuple(b[i + 1] - b[i] for i in range(len(b) - 1))

    @classmethod
    def equal(cls, d: int, size: int) -> "PartsSpec":
        """d parts of equal size."""
        return cls(tuple(i * size for i in range(d + 1)))

    def part_of(self, vertex: int) -> int:
        """1-based index of the part containing the vertex."""
        if not 1 <= vertex <= self.n:
            raise InputError(f"vertex {vertex} out of range for n={self.n}")
        for i in range(self.d):
            if vertex <= self.boundaries[i + 1]:
                return i + 1
        raise AssertionError("unreachable")


def make_matrix(extents: Sequence[int], ones: Iterable[Sequence[int]]) -> BinaryMatrix:
    """Build a BinaryMatrix, rejecting duplicate or out-of-range coordinates."""
    seen: set[Coord] = set()
    for coord in ones:
        t = tuple(coord)
        if t in seen:
            raise InputError(f"duplicate coordinate {t}")
        seen.add(t)
    return BinaryMatrix(tuple(extents), frozenset(seen))


def make_hypergraph(n: int, edges: Iterable[Iterable[int]]) -> OrderedHypergraph:
    """Build an OrderedHypergraph, canonicalizing edges to increasing tuples.

    Repeated vertices inside an edge and repeated edges are rejected.
    """
    canonical: set[Edge] = set()
    for edge in edges:
        vs = list(edge)
        t = tuple(sorted(vs))
        if len(set(vs)) != len(vs):
            raise InputError(f"edge {vs} repeats a vertex")
        if t in canonical:
            raise InputError(f"duplicate edge {t}")
        canonical.add(t)
    return OrderedHypergraph(n, frozenset(canonical))


def d_permutation_matrix(spec: PermutationSpec) -> BinaryMatrix:
    """The d-permutation matrix of length k with 1s at (i, p_1(i), ..., p_{d-1}(i))."""
    ones = {
        (i,) + tuple(perm[i - 1] for perm in spec.perms) for i in range(1, spec.k + 1)
    }
    return BinaryMatrix((spec.k,) * spec.d, frozenset(ones))


def permutation_matrix(perm: Sequence[int]) -> BinaryMatrix:
    """2-dimensional permutation matrix of a single permutation of [k]."""
    return d_permutation_matrix(PermutationSpec(len(perm), (tuple(perm),)))


def associated_hypergraph(matrix: BinaryMatrix) -> tuple[OrderedHypergraph, PartsSpec]:
    """The d-partite d-uniform hypergraph whose edges encode the 1-entries.

    A 1-entry at (c_1, ..., c_d) becomes the edge {offset_j + c_j : j in [d]}
    where offset_j is the sum of the extents of the first j-1 axes.  The
    returned PartsSpec records the axis intervals.
    """
    offsets = [0]
    for n in matrix.extents:
        offsets.append(offsets[-1] + n)
    edges = {
        tuple(offsets[j] + c for j, c in enumerate(coord)) for coord in matrix.ones
    }
    return OrderedHypergraph(offsets[-1], frozenset(edges)), PartsSpec(tuple(offsets))


def is_d_partite(hypergraph: OrderedHypergraph, parts: PartsSpec) -> bool:
    """True when every edge has at most one vertex in each part."""
    if parts.n != hypergraph.n:
        raise InputError(
            f"parts cover {parts.n} vertices but hypergraph has {hypergraph.n}"
        )
    for edge in hypergraph.edges:
        used = [parts.part_of(v) for v in edge]
        if len(set(used)) != len(used):
            return False
    return True


def associated_matrix(hypergraph: OrderedHypergraph, parts: PartsSpec) -> BinaryMatrix:
    """Inverse of :func:`associated_hypergraph` for d-partite d-uniform inputs."""
    d = parts.d
    if d < 2:
        raise InputError("associated matrix needs at least 2 parts")
    if parts.n != hypergraph.n:
        raise InputError(
            f"parts cover {parts.n} vertices but hypergraph has {hypergraph.n}"
        )
    ones = set()
    for edge in hypergraph.sorted_edges():
        if len(edge) != d:
            raise InputError(f"edge {edge} has size {len(edge)}, expected {d}-uniform")
        coord = []
        for j, v in enumerate(edge):
            lo, hi = parts.boundaries[j], parts.boundaries[j + 1]
            if not lo < v <= hi:
                raise InputError(f"edge {edge} is not transversal to the parts")
            coord.append(v - lo)
        ones.add(tuple(coord))
    return BinaryMatrix(parts.sizes, frozenset(ones))


def is_d_permutation_hypergraph(hypergraph: OrderedHypergraph) -> int | None:
    """Return the length k when the input is a d-permutation hypergraph.

    Accepts hypergraphs that are d-uniform (d >= 2), d-partite with d equal
    parts of size k, and in which every vertex lies in exactly one edge.
    Returns None otherwise.
    """
    if not hypergraph.edges:
        return None
    sizes = {len(e) for e in hypergraph.edges}
    if len(sizes) != 1:
        return None
    d = sizes.pop()
    if d < 2 or hypergraph.n % d != 0:
        return None
    k = hypergraph.n // d
    if len(hypergraph.edges) != k:
        return None
    covered: set[int] = set()
    for edge in hypergraph.edges:
        part_indices = [(v - 1) // k for v in edge]
        if part_indices != list(range(d)):
            return None
        covered.update(edge)
    if len(covered) != hypergraph.n:
        return None
    return k
