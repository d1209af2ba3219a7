"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line.  Values are exact, the
random-density criterion's mean, target and threshold included.
"""

import time

from patternex import (
    InputError,
    ex_matrix,
    make_matrix,
    matrix_contains,
    permutation_matrix,
)
from patternex.cli import main
from patternex.verify import (
    check_association_equivalence,
    check_contraction_recurrence,
    check_doubling_upper_bound,
    check_interval_blowup,
    check_partite_edge_bound,
    check_padding_chain,
    check_random_density,
)

from oracles import all_matrices, brute_max_weight


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")


def test_01_oracle_equivalence_all_2x2_patterns():
    started = time.perf_counter()
    ok = True
    for pattern in all_matrices((2, 2)):
        for n in (1, 2, 3):
            expected = brute_max_weight(pattern, (n, n))
            if expected is None:
                # no avoider exists (the empty pattern fits): must refuse
                try:
                    ex_matrix(pattern, n)
                    ok = False
                except InputError:
                    pass
            else:
                ok = ok and ex_matrix(pattern, n).value == expected
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60
    _report("oracle-equivalence-2x2", ok)
    assert ok, f"elapsed {elapsed:.1f}s"


def test_02_identity_staircase_values():
    started = time.perf_counter()
    identity = permutation_matrix((1, 2))
    ok = True
    for n in range(1, 6):
        staircase = make_matrix(
            (n, n),
            [(1, j) for j in range(1, n + 1)] + [(i, 1) for i in range(2, n + 1)],
        )
        assert matrix_contains(staircase, identity) is None
        cert = ex_matrix(identity, n)
        ok = ok and cert.value == 2 * n - 1 == staircase.weight
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300
    _report("identity-staircase", ok)
    assert ok, f"elapsed {elapsed:.1f}s"


def test_03_doubling_upper_bound():
    result = check_doubling_upper_bound(4)
    _report("doubling-upper-bound", result.passed)
    assert result.passed, result.failures


def test_04_interval_blowup():
    result = check_interval_blowup(4)
    padded_instances = [
        inst for inst in result.instances if inst.params["pattern"].startswith("3x3")
    ]
    ok = result.passed and len(padded_instances) == 2
    for inst in padded_instances:
        ok = ok and inst.params["edges"] == (inst.params["t"] - 1) * inst.params["ex"]
    _report("interval-blowup", ok)
    assert ok, result.failures


def test_05_partite_edge_bound():
    result = check_partite_edge_bound(4)
    _report("partite-edge-bound", result.passed)
    assert result.passed, result.failures


def test_06_padding_chain():
    result = check_padding_chain(3)
    counts = {(2, 1): 1, (2, 2): 2, (2, 3): 6, (3, 1): 1, (3, 2): 4, (3, 3): 36}
    seen = {}
    for inst in result.instances:
        key = (inst.params["d"], inst.params["k"])
        seen[key] = seen.get(key, 0) + 1
    ok = result.passed and seen == counts
    _report("padding-chain", ok)
    assert ok, result.failures


def test_07_contraction_recurrence():
    result = check_contraction_recurrence()
    ok = result.passed
    for inst in result.instances:
        n = inst.params["n"]
        ok = ok and inst.params["count_n"] == 2**n
        ok = ok and inst.params["count_tn"] == 2 ** (2 * n)
        ok = ok and "holds_edge_variant" in inst.params
    _report("contraction-recurrence", ok)
    assert ok, result.failures


def test_08_random_density():
    started = time.perf_counter()
    result = check_random_density(0)
    elapsed = time.perf_counter() - started
    ok = result.passed and elapsed < 60
    _report("random-density", ok)
    assert ok, f"elapsed {elapsed:.1f}s, failures {result.failures}"


def test_09_association_equivalence():
    result = check_association_equivalence(3)
    pair_counts = [inst.params["pairs"] for inst in result.instances]
    ok = result.passed and pair_counts == [4, 256, 262144]
    _report("association-equivalence", ok)
    assert ok, result.failures


def test_10_cli_determinism(tmp_path, capsys):
    pattern_file = tmp_path / "identity.txt"
    pattern_file.write_text("2 2 2\n1 1\n2 2\n")
    hyper_file = tmp_path / "h.txt"
    hyper_file.write_text("4\n1 3\n2 4\n")
    host_file = tmp_path / "host.txt"
    host_file.write_text("2 3 3\n1 1\n2 3\n3 2\n")
    allones_file = tmp_path / "allones.txt"
    allones_file.write_text("2 2 2\n1 1\n1 2\n2 1\n2 2\n")

    def tree(root):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    commands = {
        "compute": lambda out: main(
            ["compute", "--kind", "ex", "--pattern", str(pattern_file),
             "--n", "1..3", "--out", str(out)]
        ),
        "verify": lambda out: main(
            ["verify", "--claims", "Lemma3,Thm7-recurrence", "--budget", "2",
             "--seed", "7", "--out", str(out)]
        ),
        "generate": lambda out: main(
            ["generate", "random-avoider", "--pattern", str(allones_file),
             "--n", "6", "--seed", "7", "--trials", "2", "--out", str(out)]
        ),
        "generate-pad": lambda out: main(
            ["generate", "cyclic-pad", "--input", str(hyper_file), "--out", str(out)]
        ),
        "contains": lambda out: main(
            ["contains", "matrix", str(host_file), str(pattern_file)]
        ),
    }
    ok = True
    for name, run in sorted(commands.items()):
        captures = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}-{attempt}"
            code = run(out)
            # output paths necessarily differ between runs; normalize them
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            captures.append((code, stdout, tree(out) if out.exists() else {}))
        ok = ok and captures[0] == captures[1] and captures[0][0] == 0
    _report("cli-determinism", ok)
    assert ok
