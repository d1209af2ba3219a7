"""Running one unit of each workload, and checking its output.

``execute`` calls the library's public functions through their module
attributes (``px.search.ex_matrix`` and so on), so the boundary wrappers
of a traced run see the benchmark's own calls too.  ``check_*`` run
after the timed phase and return one list of problems per unit; an empty
list means the unit's output was confirmed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from . import oracle
from .inputs import CERTIFIED_KINDS

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# instance counts of run_checks(budget=4), in CLAIM_NAMES order
BATTERY_INSTANCES = {
    "Lemma2": 356,
    "Lemma3": 4,
    "Lemma5": 4,
    "Lemma6": 50,
    "Thm7-recurrence": 2,
    "Lemma8-density": 1,
    "KlazarMarcus": 3,
    "ExiExe": 8,
}
BATTERY_PAIRS = 262_404
BATTERY_BUDGET = 4

# "avoids" answers confirmed by the independent oracle, per pass
AVOID_SAMPLE = 6


def load_reference() -> dict:
    """kind -> canonical pattern id -> n (as a string) -> exact value."""
    with REFERENCE_PATH.open() as fh:
        return json.load(fh)


def execute(px, workload: str, unit):
    if workload == "extremal_tables":
        search = px.search
        if unit.kind == "ex":
            return search.ex_matrix(unit.pattern, unit.n)
        if unit.kind == "f":
            return search.f_multi(unit.pattern, unit.pattern.d, unit.n)
        if unit.kind == "gex":
            return search.gex_graph(unit.pattern, unit.n)
        if unit.kind == "exe":
            return search.exe_hyper(unit.pattern, unit.n)
        if unit.kind == "exi":
            return search.exi_hyper(unit.pattern, unit.n)
        return search.count_avoiders(unit.pattern, unit.n)
    if workload == "containment_queries":
        if unit.kind == "matrix":
            return px.containment.matrix_contains(unit.host, unit.pattern)
        return px.containment.hypergraph_contains(unit.host, unit.pattern)
    return px.verify.run_checks(None, budget=BATTERY_BUDGET, seed=unit)


def _matrix_avoids(host, pattern) -> bool:
    return not oracle.matrix_contains(host.extents, host.ones, pattern.extents, pattern.ones)


def _hypergraph_avoids(host, pattern) -> bool:
    return not oracle.hypergraph_contains(
        host.n, host.sorted_edges(), pattern.n, pattern.sorted_edges()
    )


def check_extremal(px, rows, results, reference) -> list[list[str]]:
    problems = []
    for row, result in zip(rows, results):
        found = []
        expected = reference.get(row.kind, {}).get(row.key, {}).get(str(row.n))
        value = result if row.kind == "count" else result.value
        if expected is None:
            found.append("no reference value")
        elif value != expected:
            found.append(f"{row.kind} n={row.n}: value {value} != reference {expected}")
        if row.kind in CERTIFIED_KINDS:
            w = result.witness
            if not result.verified:
                found.append("certificate not marked verified")
            if row.kind in ("ex", "f"):
                achieved = w.weight
                shape_ok = w.extents == (row.n,) * row.pattern.d
                avoids = _matrix_avoids(w, row.pattern)
            else:
                achieved = w.weight if row.kind == "exi" else w.edge_count
                shape_ok = w.n == row.n
                avoids = _hypergraph_avoids(w, row.pattern)
            if achieved != value:
                found.append(f"witness achieves {achieved}, value is {value}")
            if not shape_ok:
                found.append("witness has the wrong shape")
            if not avoids:
                found.append("witness contains the pattern")
        problems.append(found)
    return problems


def check_containment(px, queries, results, rng: random.Random) -> list[list[str]]:
    problems = []
    avoid_indices = []
    for i, (q, emb) in enumerate(zip(queries, results)):
        found = []
        if emb is None:
            if q.planted:
                found.append("planted copy not found")
            else:
                avoid_indices.append(i)
        else:
            verify = (
                px.containment.verify_matrix_embedding
                if q.kind == "matrix"
                else px.containment.verify_hypergraph_embedding
            )
            if not verify(q.host, q.pattern, emb):
                found.append("returned embedding fails verification")
        problems.append(found)
    for i in rng.sample(avoid_indices, min(AVOID_SAMPLE, len(avoid_indices))):
        q = queries[i]
        avoids = _matrix_avoids if q.kind == "matrix" else _hypergraph_avoids
        if not avoids(q.host, q.pattern):
            problems[i].append("reported avoidance, but the oracle finds a copy")
    return problems


def check_battery(report) -> list[str]:
    found = []
    if not report.passed:
        found.append("overall_pass is false")
    counts = {c.claim: len(c.instances) for c in report.checks}
    if counts != BATTERY_INSTANCES:
        found.append(f"instance counts {counts} != {BATTERY_INSTANCES}")
    pairs = sum(
        inst.params.get("pairs", 0)
        for c in report.checks
        if c.claim == "KlazarMarcus"
        for inst in c.instances
    )
    if pairs != BATTERY_PAIRS:
        found.append(f"KlazarMarcus checked {pairs} pairs, expected {BATTERY_PAIRS}")
    return found


def check(px, workload, units, results, seed, pass_index, reference) -> list[list[str]]:
    """Problems per unit; ``results`` holds the exception where the call raised."""
    done = [i for i, r in enumerate(results) if not isinstance(r, Exception)]
    problems = [[f"raised {r!r}"] if isinstance(r, Exception) else [] for r in results]
    ok_units = [units[i] for i in done]
    ok_results = [results[i] for i in done]
    if workload == "extremal_tables":
        found = check_extremal(px, ok_units, ok_results, reference)
    elif workload == "containment_queries":
        rng = random.Random(f"avoid-sample/{seed}/{pass_index}")
        found = check_containment(px, ok_units, ok_results, rng)
    else:
        found = [check_battery(r) for r in ok_results]
    for i, f in zip(done, found):
        problems[i].extend(f)
    return problems

