"""Mechanical verification of the package's checkable inequalities.

Each claim is exercised over every instance inside a parameter range
that its check derives from the size budget (or the seed), with both
sides computed exactly by the solvers and every constructed witness
re-checked.  A failed instance carries a replayable counterexample
(text dumps of the objects plus the seed); the harness writes those out
as files.  Reports contain only exact integers and rationals, each
rational written as its ``str``, such as ``1999/256``.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import combinations, pairwise, permutations, product

from . import fileio
from .constructions import (
    GeneratorConfig,
    analytic_expected_weight,
    blowup_graph,
    chain_patterns,
    corner_pad,
    cyclic_pad,
    default_density,
    random_avoider,
)
# klazar_marcus_check is unused here: perfbench/tracing.py rebinds the name
# in this module, and CI's traced smoke run fails without it
from .containment import association_disagreement, hypergraph_contains, klazar_marcus_check
from .errors import InputError, PostconditionError, int_text
from .search import count_avoiders, ex_matrix, exe_hyper, exi_hyper, gex_graph
from .structures import (
    BinaryMatrix,
    OrderedHypergraph,
    PartsSpec,
    PermutationSpec,
    _Record,
    associated_hypergraph,
    associated_matrix,
    d_permutation_matrix,
    make_hypergraph,
    permutation_matrix,
)

# claim -> (summary, runner).  Each runner looks its check up as a module
# global when called, so rebinding a ``check_*`` name here takes effect.
CLAIMS = {
    "Lemma2": (
        "graph extremal value never exceeds the matrix extremal value for corner-anchored "
        "patterns",
        lambda budget, seed: check_doubling_upper_bound(budget),
    ),
    "Lemma3": (
        "the interval blow-up of an extremal bipartite avoider keeps (t-1)*ex edges and "
        "stays an avoider",
        lambda budget, seed: check_interval_blowup(budget),
    ),
    "Lemma5": (
        "edge counts of uniform avoiders are bounded by the associated matrix extremal "
        "value when part boundaries are anchored",
        lambda budget, seed: check_partite_edge_bound(budget),
    ),
    "Lemma6": (
        "cyclic padding and chain growth produce permutation hypergraphs that contain "
        "their predecessors and anchor all part boundaries",
        lambda budget, seed: check_padding_chain(budget),
    ),
    "Thm7-recurrence": (
        "avoider counts satisfy the interval-contraction recurrence, with both exponent "
        "variants measured",
        lambda budget, seed: check_contraction_recurrence(),
    ),
    "Lemma8-density": (
        "the deletion-repair generator always avoids and its mean weight meets the "
        "analytic target",
        lambda budget, seed: check_random_density(seed),
    ),
    "KlazarMarcus": (
        "hypergraph containment agrees with associated-matrix containment on all "
        "partite instances",
        lambda budget, seed: check_association_equivalence(budget),
    ),
    "ExiExe": (
        "weight extremal values are bounded by (2kd-1)(k-1) times the edge extremal values",
        lambda budget, seed: check_weight_vs_edges(budget),
    ),
}
CLAIM_NAMES = tuple(CLAIMS)


class InstanceResult(_Record):
    __slots__ = ("params", "passed", "payload")
    _defaults = {"payload": {}}


class CheckResult(_Record):
    __slots__ = ("claim", "parameters", "instances", "notes")
    _defaults = {"notes": ()}

    @property
    def passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    @property
    def failures(self) -> list[InstanceResult]:
        return [inst for inst in self.instances if not inst.passed]


class VerificationReport(_Record):
    __slots__ = ("checks", "budget", "seed")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "overall_pass": self.passed,
            "checks": [
                {**_plain(c), "summary": CLAIMS[c.claim][0], "passed": c.passed}
                for c in self.checks
            ],
        }

    def render_text(self) -> str:
        lines = [f"verification report (budget={self.budget}, seed={self.seed})", ""]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.claim}: {CLAIMS[c.claim][0]}")
            lines.append(
                f"       parameters: {_fmt_dict(c.parameters)}; "
                f"instances: {len(c.instances)}"
            )
            for note in c.notes:
                lines.append(f"       note: {note}")
            for inst in c.failures:
                lines.append(f"       FAILED instance {_fmt_dict(inst.params)}")
                for key, value in sorted(inst.payload.items()):
                    if key != "objects":
                        lines.append(f"         {key}: {value}")
        lines.append("")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _plain(value):
    """``value`` with each record turned into a dict of its fields, each
    ``Fraction`` into its ``str``, and every dict, list and tuple copied,
    recursively, so that editing the result leaves the records as they
    were."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, _Record):
        return {name: _plain(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    return value


def _fmt_dict(d: dict) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(d.items()))


def _matrix_id(matrix: BinaryMatrix) -> str:
    shape = "x".join(str(n) for n in matrix.extents)
    cells = "".join("(" + ",".join(map(str, c)) + ")" for c in matrix.sorted_ones())
    return f"{shape}:{cells or 'empty'}"


def _hypergraph_id(h: OrderedHypergraph) -> str:
    edges = "".join("{" + ",".join(map(str, e)) + "}" for e in h.sorted_edges())
    return f"n={h.n}:{edges or 'empty'}"


def _instance(params: dict, passed: bool, objects: dict, **found) -> InstanceResult:
    """One instance's result; only a failed one carries a payload.

    The payload is ``found`` plus ``objects``, each matrix or hypergraph
    written as text in the package's file format, so the harness can
    write it out as a replayable counterexample.
    """
    if passed:
        return InstanceResult(params, True)
    texts = {
        name: fileio.format_matrix(obj)
        if isinstance(obj, BinaryMatrix)
        else fileio.format_hypergraph(obj)
        for name, obj in objects.items()
    }
    return InstanceResult(params, False, {**found, "objects": texts})


# ---------------------------------------------------------------------------
# instance generators


def corner_anchored_patterns() -> list[BinaryMatrix]:
    """Every pattern with a 1-entry at (k_1, 1), weight and extents at most 3."""
    weight_max = extent_max = 3
    out = []
    for k1 in range(1, extent_max + 1):
        for k2 in range(1, extent_max + 1):
            anchor = (k1, 1)
            cells = [(i, j) for i in range(1, k1 + 1) for j in range(1, k2 + 1) if (i, j) != anchor]
            for extra_count in range(min(weight_max, len(cells) + 1)):
                for extra in combinations(cells, extra_count):
                    out.append(BinaryMatrix((k1, k2), frozenset((anchor,) + extra)))
    return out


def all_graphs(n: int, pairs) -> Iterator[OrderedHypergraph]:
    """Every graph on [n] with edges from ``pairs``, built one at a time: by
    edge count, then in combinations order."""
    pairs = list(pairs)
    for m in range(len(pairs) + 1):
        for chosen in combinations(pairs, m):
            yield OrderedHypergraph(n, frozenset(chosen))


def permutation_hypergraphs(k: int, d: int = 2) -> list[tuple[tuple, OrderedHypergraph]]:
    """Each (d - 1)-tuple of permutations of [k], in product order, with its hypergraph.

    Distinct tuples give distinct hypergraphs, and for d = 2 product order
    is also the order of their sorted edge lists.
    """
    tuples = product(permutations(range(1, k + 1)), repeat=d - 1)
    return [
        (p, associated_hypergraph(d_permutation_matrix(PermutationSpec(k, p)))[0]) for p in tuples
    ]


# ---------------------------------------------------------------------------
# claim checks


def check_doubling_upper_bound(budget: int) -> CheckResult:
    """gex(Q, n) <= ex(P, n) for corner-anchored P with associated graph Q."""
    instances = []
    for pattern in corner_anchored_patterns():
        graph_pattern, _ = associated_hypergraph(pattern)
        for n in range(1, budget + 1):
            ex_value = ex_matrix(pattern, n).value
            gex_value = gex_graph(graph_pattern, n).value
            params = {"pattern": _matrix_id(pattern), "n": n, "gex": gex_value, "ex": ex_value}
            objects = {"pattern": pattern, "graph_pattern": graph_pattern}
            passed = gex_value <= ex_value
            instances.append(_instance(params, passed, objects, gex=gex_value, ex=ex_value))
    return CheckResult(
        "Lemma2",
        {"n_max": budget, "weight_max": 3, "extent_max": 3},
        tuple(instances),
    )


def check_interval_blowup(budget: int) -> CheckResult:
    """Blow-ups of extremal bipartite avoiders have (t-1)*ex(P,n) edges and avoid.

    The patterns are the corner-padded identity and the anti-identity.
    The padding runs here, one base at a time, so that a defect which
    makes a construction or a search raise fails that base's instance
    and not the whole battery, as in :func:`check_padding_chain`.
    """
    n = 2
    t_values = range(2, max(budget, 3))
    instances = []
    for base, pad in ((permutation_matrix((1, 2)), True), (permutation_matrix((2, 1)), False)):
        try:
            pattern = corner_pad(base) if pad else base
            cert = ex_matrix(pattern, n)
            bipartite, _ = associated_hypergraph(cert.witness)
            graph_pattern, _ = associated_hypergraph(pattern)
            base_ok = hypergraph_contains(bipartite, graph_pattern) is None
            for t in t_values:
                blown = blowup_graph(bipartite, t)
                count_ok = blown.edge_count == (t - 1) * cert.value
                avoid_ok = hypergraph_contains(blown, graph_pattern) is None
                exact_ok = True
                exact_value = None
                if n * t <= 4:
                    exact_value = gex_graph(graph_pattern, n * t).value
                    exact_ok = exact_value >= (t - 1) * cert.value
                params = {
                    "pattern": _matrix_id(pattern),
                    "n": n,
                    "t": t,
                    "edges": blown.edge_count,
                    "ex": cert.value,
                }
                if exact_value is not None:
                    params["gex_exact"] = exact_value
                instances.append(
                    _instance(
                        params,
                        base_ok and count_ok and avoid_ok and exact_ok,
                        {"pattern": pattern, "bipartite_avoider": bipartite, "blowup": blown},
                        edges=blown.edge_count,
                        expected_edges=(t - 1) * cert.value,
                        base_avoids=base_ok,
                        blowup_avoids=avoid_ok,
                    )
                )
        except (InputError, PostconditionError) as exc:
            params = {"base": _matrix_id(base), "corner_pad": pad, "n": n}
            instances.append(_instance(params, False, {"base": base}, error=str(exc)))
    return CheckResult("Lemma3", {"n": n, "t_values": list(t_values)}, tuple(instances))


def check_partite_edge_bound(budget: int) -> CheckResult:
    """Every uniform avoider of a boundary-anchored pattern respects the matrix bound.

    Exhaustive over all ordered graphs on [n] for the length-2 pattern
    whose single boundary pair is anchored.  The most edges of an avoider
    found this way must also equal ``gex_graph``'s value, the same
    maximum (2n - 3 for n >= 2) found by the copy-index solver, so an
    instance fails when containment misjudges a graph even where the
    matrix bound leaves slack.
    """
    anchored = make_hypergraph(4, [(1, 4), (2, 3)])
    pattern = associated_matrix(anchored, PartsSpec.equal(2, 2))
    instances = []
    for n in range(1, budget + 1):
        bound = ex_matrix(pattern, n).value
        gex = gex_graph(anchored, n).value
        avoiders = 0
        worst = -1
        bad = None
        for graph in all_graphs(n, combinations(range(1, n + 1), 2)):
            if hypergraph_contains(graph, anchored) is None:
                avoiders += 1
                worst = max(worst, graph.edge_count)
                if graph.edge_count > bound and bad is None:
                    bad = graph
        params = {"n": n, "bound": bound, "avoiders": avoiders, "max_edges": worst}
        passed = bad is None and worst == gex
        objects = {"pattern": anchored}
        found = {"bound": bound, "gex": gex}
        if bad is not None:
            objects["avoider"] = bad
            found["edges"] = bad.edge_count
        instances.append(_instance(params, passed, objects, **found))
    return CheckResult(
        "Lemma5",
        {"n_max": budget, "pattern": _hypergraph_id(anchored)},
        tuple(instances),
    )


def check_padding_chain(budget: int) -> CheckResult:
    """Cyclic padding plus chain growth, checked as one chain of containments.

    The hypergraph engine re-checks that each step (the base, its padding,
    each grown step) contains the one before it.  cyclic_pad and
    chain_patterns check lengths and boundaries, raising on a wrong one.
    """
    dimensions = (2, 3)
    k_max = min(3, budget)  # 3-d length 4 would add 576 bases
    extra_steps = 2
    instances = []
    for d in dimensions:
        for k in range(1, k_max + 1):
            for perms, base in permutation_hypergraphs(k, d):
                params = {"d": d, "k": k, "perms": str(perms)}
                try:
                    padded = cyclic_pad(base)
                    side = k + d - 1
                    padded_matrix = associated_matrix(padded, PartsSpec.equal(d, side))
                    # the padded start anchors every part boundary, so chain_patterns
                    # checks each step's boundaries
                    chain = chain_patterns(padded_matrix, side + extra_steps)
                    steps = [base] + [associated_hypergraph(m)[0] for m in chain]
                    ok = all(hypergraph_contains(b, a) is not None for a, b in pairwise(steps))
                    instances.append(_instance(params, ok, {"base": base, "padded": padded}))
                except (InputError, PostconditionError) as exc:
                    instances.append(_instance(params, False, {"base": base}, error=str(exc)))
    return CheckResult(
        "Lemma6",
        {"dimensions": list(dimensions), "k_max": k_max, "extra_steps": extra_steps},
        tuple(instances),
    )


def check_contraction_recurrence() -> CheckResult:
    """|M(H, t*n)| <= (2^t - 1)^exponent * |M(H, n)| for the single-edge pattern.

    Both exponent variants are computed: the weight-based one is the
    claim, the edge-based one (a smaller exponent, hence a stronger
    bound) is reported alongside.
    """
    pattern = make_hypergraph(2, [(1, 2)])
    n_values = (1, 2)
    t = 2
    instances = []
    for n in n_values:
        small = count_avoiders(pattern, n)
        large = count_avoiders(pattern, t * n)
        weight_value = exi_hyper(pattern, n).value
        edge_value = exe_hyper(pattern, n).value
        bound_weight = (2**t - 1) ** weight_value * small
        bound_edges = (2**t - 1) ** edge_value * small
        holds_weight = large <= bound_weight
        holds_edges = large <= bound_edges
        instances.append(
            _instance(
                {
                    "n": n,
                    "t": t,
                    "count_n": small,
                    "count_tn": large,
                    "exi": weight_value,
                    "exe": edge_value,
                    "bound_weight_variant": bound_weight,
                    "bound_edge_variant": bound_edges,
                    "holds_weight_variant": holds_weight,
                    "holds_edge_variant": holds_edges,
                },
                holds_weight,
                {"pattern": pattern},
                count_large=large,
                bound_weight_variant=bound_weight,
            )
        )
    return CheckResult(
        "Thm7-recurrence",
        {"n_values": list(n_values), "t": t, "pattern": _hypergraph_id(pattern)},
        tuple(instances),
        notes=(
            "the edge-based exponent gives the smaller bound; both variants "
            "are reported per instance",
        ),
    )


def _two_rows_share_two_columns(matrix: BinaryMatrix) -> bool:
    """Whether a 2-d matrix contains the 2x2 all-ones matrix, by definition."""
    rows = [0] * (matrix.extents[0] + 1)
    for r, c in matrix.ones:
        rows[r] |= 1 << c
    for a, b in combinations(rows, 2):
        shared = a & b
        if shared & (shared - 1):  # at least two bits
            return True
    return False


def check_random_density(seed: int) -> CheckResult:
    """All repaired samples avoid, and the mean weight meets 4/5 of the
    analytic target.

    Avoidance is re-checked on each output without the containment engine
    that drove the repair: two rows sharing two 1-columns is a copy of
    the claim's pattern, the 2x2 all-ones matrix.  The mean and the
    target are exact rationals: at side 8 and p = 1/8 the target is
    8 - 784/4096 = 1999/256, and a repair that deletes two 1-entries per
    trial more than it must fails at seed 0.
    """
    pattern = BinaryMatrix((2, 2), frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
    side, trials, threshold = 8, 100, Fraction(4, 5)
    p = default_density(pattern, side)
    config = GeneratorConfig(pattern=pattern, side=side, p=p, seed=seed, trials=trials)
    total_final = 0
    avoid_failures = 0
    for trial in range(trials):
        try:
            sample, stats = random_avoider(config, trial)
        except PostconditionError:
            avoid_failures += 1
            continue
        total_final += stats.final_weight
        if _two_rows_share_two_columns(sample):
            avoid_failures += 1
    mean_final = Fraction(total_final, trials)
    target = analytic_expected_weight(pattern, side, p)
    instance = _instance(
        {
            "side": side,
            "trials": trials,
            "seed": seed,
            "p": p,
            "mean_final_weight_empirical": mean_final,
            "analytic_target": target,
            "threshold": threshold,
        },
        avoid_failures == 0 and mean_final >= threshold * target,
        {"pattern": pattern},
        avoid_failures=avoid_failures,
        mean_final_weight=mean_final,
        analytic_target=target,
        seed=seed,
    )
    return CheckResult(
        "Lemma8-density",
        {"side": side, "trials": trials, "seed": seed, "threshold": threshold},
        (instance,),
        notes=(
            "the mean and the target are exact; trial t draws from the seed seed * 2^32 + t; a "
            "normal fit over seeds 0..299 fails a correct repair once in about 6 * 10^10 seeds",
        ),
    )


def check_association_equivalence(budget: int) -> CheckResult:
    """Exhaustive agreement of the two containment routes on partite instances.

    Runs every ordered pair of 2-partite graphs with the same part size,
    the scope of the equivalence; with a smaller pattern only the
    matrix-to-hypergraph direction holds (the vertex injection may cross
    part boundaries), which the test suite covers separately.
    """
    n_max = min(budget, 3)  # part size 4 has 2^16 graphs, 2^32 pairs
    instances = []
    for n in range(1, n_max + 1):
        graphs = list(all_graphs(2 * n, product(range(1, n + 1), range(n + 1, 2 * n + 1))))
        disagreement = association_disagreement(graphs, 2)
        params = {"part_size": n, "pairs": len(graphs) ** 2}
        # a passed instance reads neither the objects nor the error
        host, pat, message = disagreement or (None, None, None)
        objects = {"host": host, "pattern": pat}
        instances.append(_instance(params, disagreement is None, objects, error=message))
    return CheckResult(
        "KlazarMarcus",
        {"n_max": n_max},
        tuple(instances),
        notes=(
            "pairs share one part size; with unequal sizes the vertex "
            "injection may cross part boundaries and only the matrix-to-"
            "hypergraph direction holds",
        ),
    )


def check_weight_vs_edges(budget: int) -> CheckResult:
    """exi(H, n) <= (2kd - 1)(k - 1) * exe(H, n) for permutation hypergraphs."""
    k, d = 2, 2
    # at n = 5 the 4-vertex patterns have 30 candidate edges of size at
    # most 4, above search.MAX_HYPER_CANDIDATES (20)
    n_max = min(budget, 4)
    factor = (2 * k * d - 1) * (k - 1)
    instances = []
    for _, pat in permutation_hypergraphs(k, d):
        for n in range(1, n_max + 1):
            weight_value = exi_hyper(pat, n).value
            edge_value = exe_hyper(pat, n).value
            found = {"exi": weight_value, "exe": edge_value, "factor": factor}
            params = {"pattern": _hypergraph_id(pat), "k": k, "n": n, **found}
            passed = weight_value <= factor * edge_value
            instances.append(_instance(params, passed, {"pattern": pat}, **found))
    return CheckResult(
        "ExiExe",
        {"lengths": [k], "d": d, "n_max": n_max},
        tuple(instances),
        notes=(
            "length-1 patterns are excluded: the factor (2kd-1)(k-1) vanishes "
            "there while the weight value does not",
        ),
    )


# ---------------------------------------------------------------------------
# harness entry point


def run_checks(
    claims: list[str] | None = None, budget: int = 4, seed: int = 0
) -> VerificationReport:
    """Run the selected claims (all by default) at the given size budget."""
    if budget < 1:
        raise InputError(f"budget must be >= 1, got {int_text(budget)}")
    selected = list(CLAIM_NAMES) if claims is None else list(claims)
    if not selected:
        raise InputError(f"no claim selected; available: {', '.join(CLAIM_NAMES)}")
    for name in selected:
        if name not in CLAIM_NAMES:
            raise InputError(
                f"unknown claim {name!r}; available: {', '.join(CLAIM_NAMES)}"
            )
    checks = tuple(CLAIMS[name][1](budget, seed) for name in selected)
    return VerificationReport(checks, budget=budget, seed=seed)
