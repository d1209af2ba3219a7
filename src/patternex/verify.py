"""Mechanical verification of the package's checkable inequalities.

Each claim is exercised over every instance inside a parameter range
that its check derives from the size budget (or the seed), with both
sides computed exactly by the solvers and every constructed witness
re-checked.  A failed instance carries a replayable counterexample
(text dumps of the objects plus the seed); the harness writes those out
as files.  Reports contain only exact integers and rationals, except the
random-density check whose statistics are labeled empirical.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import combinations, permutations, product

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
    satisfies_boundary_condition,
)
# klazar_marcus_check is unused here: perfbench/tracing.py rebinds the name
# in this module, and CI's traced smoke run fails without it
from .containment import association_disagreement, hypergraph_contains, klazar_marcus_check
from .errors import InputError, PostconditionError
from .search import count_avoiders, ex_matrix, exe_hyper, exi_hyper, gex_graph
from .structures import (
    BinaryMatrix,
    OrderedHypergraph,
    PartsSpec,
    PermutationSpec,
    associated_hypergraph,
    associated_matrix,
    d_permutation_matrix,
    is_d_permutation_hypergraph,
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


@dataclass(frozen=True)
class InstanceResult:
    params: dict
    passed: bool
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    claim: str
    parameters: dict
    instances: tuple[InstanceResult, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(inst.passed for inst in self.instances)

    @property
    def failures(self) -> list[InstanceResult]:
        return [inst for inst in self.instances if not inst.passed]


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    budget: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "overall_pass": self.passed,
            "checks": [
                {**asdict(c), "summary": CLAIMS[c.claim][0], "passed": c.passed}
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
            cells = sorted(
                (i, j)
                for i in range(1, k1 + 1)
                for j in range(1, k2 + 1)
                if (i, j) != anchor
            )
            for extra_count in range(min(weight_max, len(cells) + 1)):
                for extra in combinations(cells, extra_count):
                    out.append(
                        BinaryMatrix((k1, k2), frozenset((anchor,) + extra))
                    )
    return out


def all_ordered_graphs(n: int) -> list[OrderedHypergraph]:
    pairs = list(combinations(range(1, n + 1), 2))
    out = []
    for size in range(len(pairs) + 1):
        for chosen in combinations(pairs, size):
            out.append(OrderedHypergraph(n, frozenset(chosen)))
    return out


def all_bipartite_graphs(part_size: int) -> list[OrderedHypergraph]:
    """All 2-partite graphs on [2n] whose edges cross the two parts."""
    n = part_size
    crossing = [(i, n + j) for i in range(1, n + 1) for j in range(1, n + 1)]
    out = []
    for size in range(len(crossing) + 1):
        for chosen in combinations(crossing, size):
            out.append(OrderedHypergraph(2 * n, frozenset(chosen)))
    return out


def permutation_hypergraphs(k: int, d: int = 2) -> list[OrderedHypergraph]:
    out = []
    for perms in product(permutations(range(1, k + 1)), repeat=d - 1):
        matrix = d_permutation_matrix(PermutationSpec(k, tuple(perms)))
        out.append(associated_hypergraph(matrix)[0])
    return sorted(set(out), key=lambda h: h.sorted_edges())


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
    assert satisfies_boundary_condition(anchored, 2)
    pattern = associated_matrix(anchored, PartsSpec.equal(2, 2))
    instances = []
    for n in range(1, budget + 1):
        bound = ex_matrix(pattern, n).value
        gex = gex_graph(anchored, n).value
        avoiders = 0
        worst = -1
        bad = None
        for graph in all_ordered_graphs(n):
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
    """Cyclic padding plus chain growth, machine-verified step by step."""
    dimensions = (2, 3)
    k_max = min(3, budget)  # 3-d length 4 would add 576 bases
    extra_steps = 2
    instances = []
    for d in dimensions:
        for k in range(1, k_max + 1):
            for perms in product(permutations(range(1, k + 1)), repeat=d - 1):
                spec = PermutationSpec(k, tuple(perms))
                base = associated_hypergraph(d_permutation_matrix(spec))[0]
                params = {"d": d, "k": k, "perms": str(perms)}
                try:
                    padded = cyclic_pad(base)
                    side = k + d - 1
                    ok = (
                        is_d_permutation_hypergraph(padded) == side
                        and hypergraph_contains(padded, base) is not None
                        and satisfies_boundary_condition(padded, d)
                    )
                    padded_matrix = associated_matrix(padded, PartsSpec.equal(d, side))
                    chain = chain_patterns(padded_matrix, side + extra_steps)
                    for prev, grown in zip(chain, chain[1:]):
                        grown_hyper = associated_hypergraph(grown)[0]
                        ok = ok and satisfies_boundary_condition(grown_hyper, d)
                        ok = ok and hypergraph_contains(
                            grown_hyper, associated_hypergraph(prev)[0]
                        ) is not None
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
    """All repaired samples avoid, and the mean weight meets the analytic target.

    Avoidance is re-checked on each output without the containment engine
    that drove the repair: two rows sharing two 1-columns is a copy of
    the claim's pattern, the 2x2 all-ones matrix.
    """
    pattern = BinaryMatrix((2, 2), frozenset({(1, 1), (1, 2), (2, 1), (2, 2)}))
    side, trials, threshold = 8, 100, 0.9
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
    mean_final = total_final / trials
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
        notes=("density statistics are empirical floating-point values",),
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
        graphs = all_bipartite_graphs(n)
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
    for pat in permutation_hypergraphs(k, d):
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
        raise InputError(f"budget must be >= 1, got {budget}")
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
