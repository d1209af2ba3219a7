"""The claim checkers themselves, run at reduced budgets."""

import json
from dataclasses import replace

import pytest

from patternex import InputError, PostconditionError, constructions, containment, fileio, make_hypergraph, verify
from patternex.verify import (
    CLAIM_NAMES,
    CheckResult,
    InstanceResult,
    VerificationReport,
    check_association_equivalence,
    check_contraction_recurrence,
    check_doubling_upper_bound,
    check_interval_blowup,
    check_padding_chain,
    check_partite_edge_bound,
    check_random_density,
    check_weight_vs_edges,
    corner_anchored_patterns,
    run_checks,
)


def test_corner_anchored_family_shape():
    patterns = corner_anchored_patterns()
    assert len(patterns) == len(set(patterns))
    for pattern in patterns:
        assert (pattern.extents[0], 1) in pattern.ones
        assert 1 <= pattern.weight <= 3


def test_doubling_upper_bound_small():
    result = check_doubling_upper_bound(3)
    assert result.passed
    assert result.claim == "Lemma2"
    # values travel with the instances so the report is replayable
    sample = result.instances[0]
    assert {"pattern", "n", "gex", "ex"} <= set(sample.params)


def _under_count_by_one(solver):
    def defective(*args, **kwargs):
        certificate = solver(*args, **kwargs)
        return replace(certificate, value=certificate.value - 1)

    return defective


def test_doubling_upper_bound_fails_when_ex_under_counts(monkeypatch):
    monkeypatch.setattr(verify, "ex_matrix", _under_count_by_one(verify.ex_matrix))
    result = check_doubling_upper_bound(3)
    assert not result.passed
    # gex = ex only for the single 1-entry pattern (both 0 at every n)
    failures = result.failures
    assert [inst.params["n"] for inst in failures] == [1, 2, 3]
    assert all(inst.payload["gex"] == 0 and inst.payload["ex"] == -1 for inst in failures)


def test_interval_blowup():
    result = check_interval_blowup(4)
    assert result.passed
    assert any(inst.params.get("gex_exact") is not None for inst in result.instances)


def test_interval_blowup_fails_when_ex_under_counts(monkeypatch):
    # the blow-up of the true avoider has (t - 1) * (ex - 1) + (t - 1)
    # edges, t - 1 more than the under-counted value predicts
    monkeypatch.setattr(verify, "ex_matrix", _under_count_by_one(verify.ex_matrix))
    result = check_interval_blowup(4)
    assert not result.passed
    assert len(result.failures) == len(result.instances) == 4
    assert all(
        inst.payload["edges"] == inst.payload["expected_edges"] + inst.params["t"] - 1
        for inst in result.failures
    )


def test_interval_blowup_fails_when_containment_reports_copies(monkeypatch):
    # neither the bipartite avoider nor its blow-ups may contain the pattern
    monkeypatch.setattr(verify, "hypergraph_contains", lambda host, pattern: object())
    result = check_interval_blowup(4)
    assert not result.passed
    assert len(result.failures) == 4
    assert not any(inst.payload["base_avoids"] for inst in result.failures)


def test_partite_edge_bound():
    result = check_partite_edge_bound(3)
    assert result.passed
    assert [inst.params["n"] for inst in result.instances] == [1, 2, 3]


def test_partite_edge_bound_fails_when_containment_misses_copies(monkeypatch):
    # every graph then counts as an avoider; the bound 2n - 1 has slack 2
    # over the true avoiders, so only K5's 10 edges break it (bound 9), but
    # from n = 4, inside the default budget, the most edges also exceed
    # gex = 2n - 3; below that every graph has at most 2n - 3 edges
    monkeypatch.setattr(verify, "hypergraph_contains", lambda host, pattern: None)
    result = check_partite_edge_bound(5)
    assert [inst.passed for inst in result.instances] == [True, True, True, False, False]
    four, five = result.failures
    assert (four.params["n"], four.params["max_edges"]) == (4, 6)
    assert (four.payload["gex"], four.payload["bound"]) == (5, 7)
    assert "edges" not in four.payload
    assert five.params["n"] == 5
    assert (five.payload["edges"], five.payload["bound"], five.payload["gex"]) == (10, 9, 7)


def test_partite_edge_bound_fails_when_containment_reports_copies(monkeypatch):
    # no graph then avoids, so no n reaches gex, not even n = 1 (gex 0)
    monkeypatch.setattr(verify, "hypergraph_contains", lambda host, pattern: True)
    result = check_partite_edge_bound(3)
    assert [inst.passed for inst in result.instances] == [False, False, False]
    assert [inst.payload["gex"] for inst in result.instances] == [0, 1, 3]


def test_padding_chain_small():
    result = check_padding_chain(2)
    assert result.passed
    # d = 2: k=1 once, k=2 twice; d = 3: k=1 once, k=2 four times
    assert len(result.instances) == 8


def test_padding_chain_fails_when_containment_misses_copies(monkeypatch):
    # the padded base and every chain step must contain their predecessor
    monkeypatch.setattr(verify, "hypergraph_contains", lambda host, pattern: None)
    result = check_padding_chain(2)
    assert not result.passed
    assert len(result.failures) == 8
    assert all("padded" in inst.payload["objects"] for inst in result.failures)


def test_contraction_recurrence_reports_both_variants():
    result = check_contraction_recurrence()
    assert result.passed
    for inst in result.instances:
        assert "holds_weight_variant" in inst.params
        assert "holds_edge_variant" in inst.params
        assert inst.params["count_tn"] == 2 ** (2 * inst.params["n"])


def test_contraction_recurrence_fails_when_exi_under_counts(monkeypatch):
    # a smaller exponent shrinks the bound below the true count at n = 2:
    # 16 avoiders on [4] against (2^2 - 1)^1 * 4 = 12
    monkeypatch.setattr(verify, "exi_hyper", _under_count_by_one(verify.exi_hyper))
    result = check_contraction_recurrence()
    assert not result.passed
    assert len(result.failures) == 2
    last = result.failures[-1].payload
    assert (last["count_large"], last["bound_weight_variant"]) == (16, 12)


def test_contraction_recurrence_fails_when_count_misses_copies(monkeypatch):
    # counting every host, 2^(2^n - 1), as an avoider: at n = 2 the 2^15
    # hosts on [4] exceed (2^2 - 1)^2 * 2^3 = 72
    count = verify.count_avoiders

    def count_every_host(pattern, n):
        # an edgeless pattern on more vertices than the host never fits
        return count(make_hypergraph(n + 1, []), n)

    monkeypatch.setattr(verify, "count_avoiders", count_every_host)
    result = check_contraction_recurrence()
    assert not result.passed
    assert len(result.failures) == 2
    last = result.failures[-1].payload
    assert (last["count_large"], last["bound_weight_variant"]) == (32768, 72)


def test_random_density_quick():
    result = check_random_density(1)
    assert result.passed


def test_random_density_fails_when_the_repair_misses_copies(monkeypatch):
    # an engine that finds no copy leaves every sample unrepaired; only the
    # re-check independent of that engine can see the copies left in them
    monkeypatch.setattr(constructions, "matrix_contains", lambda *args: None)
    result = check_random_density(0)
    assert not result.passed
    assert result.instances[0].payload["avoid_failures"] > 0


def test_association_equivalence_small():
    result = check_association_equivalence(2)
    assert result.passed
    assert [inst.params["pairs"] for inst in result.instances] == [4, 256]


def _defect_above_one(engine, pattern_size):
    # the engine misses every copy of a pattern with two or more 1-entries
    # or edges (counted on its prepared pattern form), and is unchanged
    # otherwise
    def defective(host, pattern, *placements):
        return None if pattern_size(pattern) >= 2 else engine(host, pattern, *placements)

    return defective


@pytest.mark.parametrize(
    "engine,pattern_size,route",
    [
        # the pattern forms are (extents, weight, rows) and (n, edge count, ...)
        ("_matrix_embedding_search", lambda form: form[1], "matrix=False"),
        ("_hyper_embedding_search", lambda form: form[1], "hypergraph=False"),
    ],
    ids=["_matrix_embedding_search-matrix=False", "_hyper_embedding_search-hypergraph=False"],
)
def test_association_equivalence_fails_when_one_route_misses_copies(
    monkeypatch, engine, pattern_size, route
):
    defective = _defect_above_one(getattr(containment, engine), pattern_size)
    monkeypatch.setattr(containment, engine, defective)
    result = check_association_equivalence(2)
    assert not result.passed
    assert [inst.passed for inst in result.instances] == [True, False]
    payload = result.instances[1].payload
    # the first failing pair: the first host with two edges, against itself
    first = make_hypergraph(4, [(1, 3), (1, 4)])
    assert fileio.parse_hypergraph(payload["objects"]["host"]) == first
    assert fileio.parse_hypergraph(payload["objects"]["pattern"]) == first
    assert route in payload["error"]
    assert f"host={first!r}" in payload["error"]


def test_weight_vs_edges():
    result = check_weight_vs_edges(3)
    assert result.passed
    assert result.notes


def test_weight_vs_edges_fails_when_exe_under_counts(monkeypatch):
    # the factor 7 leaves room at n >= 2; at n = 1, exi = exe = 1
    monkeypatch.setattr(verify, "exe_hyper", _under_count_by_one(verify.exe_hyper))
    result = check_weight_vs_edges(3)
    assert not result.passed
    failures = result.failures
    assert [inst.params["n"] for inst in failures] == [1, 1]
    assert all((inst.payload["exi"], inst.payload["exe"]) == (1, 0) for inst in failures)


def test_run_checks_rejects_unknown_claim():
    with pytest.raises(InputError):
        run_checks(["NoSuchClaim"], budget=2)


def test_run_checks_rejects_an_empty_selection():
    with pytest.raises(InputError):
        run_checks([], budget=2)


def test_run_checks_selected_subset():
    report = run_checks(["Lemma3", "Thm7-recurrence"], budget=2, seed=0)
    assert [c.claim for c in report.checks] == ["Lemma3", "Thm7-recurrence"]
    assert report.passed


def test_report_serialization_is_deterministic():
    report = run_checks(["Lemma3"], budget=2, seed=0)
    again = run_checks(["Lemma3"], budget=2, seed=0)
    assert report.render_text() == again.render_text()
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
        again.to_dict(), sort_keys=True
    )
    assert "overall: PASS" in report.render_text()


def test_report_text_and_json_are_pinned():
    passing = CheckResult("Lemma3", {"budget": 2}, (InstanceResult({"n": 1}, True),))
    failed = InstanceResult(
        {"perms": [[2, 1]], "k": 2},
        False,
        {"error": "no copy", "objects": {"base": "2\n1 2\n"}},
    )
    failing = CheckResult(
        "Lemma6",
        {"k_max": 2},
        (InstanceResult({"perms": [[1, 2]], "k": 2}, True), failed),
        notes=("first note", "second note"),
    )
    report = VerificationReport((passing, failing), budget=4, seed=7)
    lemma3, lemma6 = (verify.CLAIMS[c][0] for c in ("Lemma3", "Lemma6"))
    assert json.dumps(report.to_dict(), sort_keys=True) == (
        '{"budget": 4, "checks": ['
        '{"claim": "Lemma3", "instances": [{"params": {"n": 1}, "passed": true, "payload": {}}], '
        '"notes": [], "parameters": {"budget": 2}, "passed": true, "summary": "' + lemma3 + '"}, '
        '{"claim": "Lemma6", "instances": ['
        '{"params": {"k": 2, "perms": [[1, 2]]}, "passed": true, "payload": {}}, '
        '{"params": {"k": 2, "perms": [[2, 1]]}, "passed": false, '
        '"payload": {"error": "no copy", "objects": {"base": "2\\n1 2\\n"}}}], '
        '"notes": ["first note", "second note"], "parameters": {"k_max": 2}, '
        '"passed": false, "summary": "' + lemma6 + '"}], '
        '"overall_pass": false, "seed": 7}'
    )
    assert report.render_text() == (
        "verification report (budget=4, seed=7)\n"
        "\n"
        f"[PASS] Lemma3: {lemma3}\n"
        "       parameters: budget=2; instances: 1\n"
        f"[FAIL] Lemma6: {lemma6}\n"
        "       parameters: k_max=2; instances: 2\n"
        "       note: first note\n"
        "       note: second note\n"
        "       FAILED instance k=2, perms=[[2, 1]]\n"
        "         error: no copy\n"
        "\n"
        "overall: FAIL\n"
    )


def test_claim_registry_is_complete():
    report = run_checks(None, budget=2, seed=0)
    assert [c.claim for c in report.checks] == list(CLAIM_NAMES)


def test_exi_exe_clamps_n_to_the_candidate_limit():
    # at n = 5 the 4-vertex patterns exceed search.MAX_HYPER_CANDIDATES
    report = run_checks(["ExiExe"], budget=5)
    assert report.passed
    [check] = report.checks
    assert check.parameters["n_max"] == 4
    assert sorted({inst.params["n"] for inst in check.instances}) == [1, 2, 3, 4]


# the check each claim runs; the benchmark tracer times a claim by
# rebinding this name in the verify module
CLAIM_CHECKS = {
    "Lemma2": "check_doubling_upper_bound",
    "Lemma3": "check_interval_blowup",
    "Lemma5": "check_partite_edge_bound",
    "Lemma6": "check_padding_chain",
    "Thm7-recurrence": "check_contraction_recurrence",
    "Lemma8-density": "check_random_density",
    "KlazarMarcus": "check_association_equivalence",
    "ExiExe": "check_weight_vs_edges",
}


def test_run_checks_calls_the_checks_bound_at_run_time(monkeypatch):
    assert sorted(CLAIM_CHECKS.values()) == sorted(
        name for name in dir(verify) if name.startswith("check_")
    )
    calls = []
    results = {}
    for claim, attr in CLAIM_CHECKS.items():
        results[claim] = CheckResult(claim, {}, ())

        def stub(*args, claim=claim):
            calls.append((claim, args))
            return results[claim]

        monkeypatch.setattr(verify, attr, stub)
    report = run_checks(None, budget=3, seed=7)
    assert len(report.checks) == len(CLAIM_NAMES)
    assert all(c is results[name] for c, name in zip(report.checks, CLAIM_NAMES))
    # only the budget or the seed reaches a check
    args = {"Thm7-recurrence": (), "Lemma8-density": (7,)}
    assert calls == [(name, args.get(name, (3,))) for name in CLAIM_NAMES]


def _raise_postcondition(*args, **kwargs):
    raise PostconditionError("planted failure")


def test_padding_chain_reports_a_construction_error_as_a_failed_instance(monkeypatch):
    monkeypatch.setattr(verify, "cyclic_pad", _raise_postcondition)
    result = check_padding_chain(1)
    assert not result.passed
    assert result.instances
    for inst in result.instances:
        assert not inst.passed
        assert inst.payload["error"] == "planted failure"
        base = fileio.parse_hypergraph(inst.payload["objects"]["base"])
        assert base.edge_count == inst.params["k"]


def test_random_density_counts_a_failed_repair_as_an_avoid_failure(monkeypatch):
    monkeypatch.setattr(verify, "random_avoider", _raise_postcondition)
    result = check_random_density(0)
    assert not result.passed
    (inst,) = result.instances
    assert inst.payload["avoid_failures"] == 100
    assert inst.payload["mean_final_weight"] == 0



# claim -> (the name a planted defect replaces, the defect, the claim's
# check, the payload shapes of its failed instances: (keys other than
# "objects", object names))
PLANTED_FAILURES = {
    "Lemma2": (
        (verify, "ex_matrix"),
        _under_count_by_one(verify.ex_matrix),
        lambda: check_doubling_upper_bound(3),
        {(("ex", "gex"), ("graph_pattern", "pattern"))},
    ),
    "Lemma3": (
        (verify, "ex_matrix"),
        _under_count_by_one(verify.ex_matrix),
        lambda: check_interval_blowup(4),
        {
            (
                ("base_avoids", "blowup_avoids", "edges", "expected_edges"),
                ("bipartite_avoider", "blowup", "pattern"),
            )
        },
    ),
    "Lemma3-error": (
        (constructions, "matrix_contains"),
        lambda *args: None,
        lambda: check_interval_blowup(4),
        {(("error",), ("base",))},
    ),
    # from n = 5 an avoider also beats the bound
    "Lemma5": (
        (verify, "hypergraph_contains"),
        lambda host, pattern: None,
        lambda: check_partite_edge_bound(5),
        {(("bound", "gex"), ("pattern",)), (("bound", "edges", "gex"), ("avoider", "pattern"))},
    ),
    "Lemma6": (
        (verify, "hypergraph_contains"),
        lambda host, pattern: None,
        lambda: check_padding_chain(2),
        {((), ("base", "padded"))},
    ),
    "Lemma6-error": (
        (verify, "cyclic_pad"),
        _raise_postcondition,
        lambda: check_padding_chain(2),
        {(("error",), ("base",))},
    ),
    "Thm7-recurrence": (
        (verify, "exi_hyper"),
        _under_count_by_one(verify.exi_hyper),
        check_contraction_recurrence,
        {(("bound_weight_variant", "count_large"), ("pattern",))},
    ),
    "Lemma8-density": (
        (constructions, "matrix_contains"),
        lambda *args: None,
        lambda: check_random_density(0),
        {(("analytic_target", "avoid_failures", "mean_final_weight", "seed"), ("pattern",))},
    ),
    "KlazarMarcus": (
        (containment, "_matrix_embedding_search"),
        _defect_above_one(containment._matrix_embedding_search, lambda form: form[1]),
        lambda: check_association_equivalence(2),
        {(("error",), ("host", "pattern"))},
    ),
    "ExiExe": (
        (verify, "exe_hyper"),
        _under_count_by_one(verify.exe_hyper),
        lambda: check_weight_vs_edges(3),
        {(("exe", "exi", "factor"), ("pattern",))},
    ),
}


@pytest.mark.parametrize("case", sorted(PLANTED_FAILURES))
def test_failed_instances_report_their_claims_payload(monkeypatch, case):
    (module, name), defect, check, shapes = PLANTED_FAILURES[case]
    monkeypatch.setattr(module, name, defect)
    result = check()
    assert result.failures
    seen = set()
    for inst in result.instances:
        if inst.passed:
            assert inst.payload == {}
            continue
        payload = dict(inst.payload)
        objects = payload.pop("objects")
        assert all(isinstance(text, str) for text in objects.values())
        seen.add((tuple(sorted(payload)), tuple(sorted(objects))))
    assert seen == shapes
