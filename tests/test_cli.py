"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patternex
from patternex import containment, count_avoiders, fileio, matrix_contains
from patternex.cli import main

from test_fileio import UNREADABLE, unreadable_path

IDENTITY2_TEXT = "2 2 2\n1 1\n2 2\n"
SINGLE_EDGE_TEXT = "2\n1 2\n"


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text(IDENTITY2_TEXT)
    return path


@pytest.fixture
def single_edge_file(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text(SINGLE_EDGE_TEXT)
    return path


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter, so a traceback shows on stderr."""
    src = Path(patternex.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "patternex.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )


def _tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestCompute:
    def test_ex_identity_staircase_values(self, tmp_path, identity_file, capsys):
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "ex", "--pattern", str(identity_file),
            "--n", "1..5", "--out", str(out),
        ]) == 0
        table = (out / "table.csv").read_text().strip().split("\n")
        assert table[0] == "n,value,ratio,witness_file"
        values = [int(line.split(",")[1]) for line in table[1:]]
        assert values == [1, 3, 5, 7, 9]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["limit_estimate"] == "9/5"
        # every emitted witness re-parses and passes its avoidance re-check
        pattern = fileio.read_matrix(identity_file)
        for row in summary["rows"]:
            witness = fileio.read_matrix(out / row["witness_file"])
            assert witness.weight == row["value"]
            assert matrix_contains(witness, pattern) is None

    def test_count_single_edge(self, tmp_path, single_edge_file):
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "count", "--pattern", str(single_edge_file),
            "--n", "1..4", "--out", str(out),
        ]) == 0
        lines = (out / "table.csv").read_text().strip().split("\n")[1:]
        assert [int(l.split(",")[1]) for l in lines] == [2, 4, 8, 16]

    def test_gex_single_edge_all_zero(self, tmp_path, single_edge_file):
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "gex", "--pattern", str(single_edge_file),
            "--n", "1..4", "--out", str(out),
        ]) == 0
        lines = (out / "table.csv").read_text().strip().split("\n")[1:]
        assert [int(l.split(",")[1]) for l in lines] == [0, 0, 0, 0]
        witness = fileio.read_hypergraph(out / "witness_n4.txt")
        assert witness.edge_count == 0

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a matrix\n")
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "ex", "--pattern", str(bad),
            "--n", "1..2", "--out", str(out),
        ]) == 2

    def test_invalid_range_leaves_no_output_directory(self, tmp_path, identity_file):
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "ex", "--pattern", str(identity_file),
            "--n", "0", "--out", str(out),
        ]) == 2
        assert not out.exists()

    def test_capacity_error_exit_3(self, tmp_path, single_edge_file):
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "count", "--pattern", str(single_edge_file),
            "--n", "5", "--out", str(out),
        ]) == 3

    def test_exi_with_exact_flag(self, tmp_path):
        nested = tmp_path / "nested.txt"
        nested.write_text("2\n1\n1 2\n")
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "exi", "--pattern", str(nested),
            "--n", "3", "--out", str(out), "--exact",
        ]) == 0

    def test_count_exact_overrides_edge_cap(self, tmp_path):
        nested = tmp_path / "nested.txt"
        nested.write_text("2\n1\n1 2\n")
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "count", "--pattern", str(nested),
            "--n", "3", "--out", str(out), "--exact", "--edge-cap", "2",
        ]) == 0
        lines = (out / "table.csv").read_text().strip().split("\n")[1:]
        expected = count_avoiders(fileio.read_hypergraph(nested), 3)
        assert [int(l.split(",")[1]) for l in lines] == [expected]
        assert expected != count_avoiders(fileio.read_hypergraph(nested), 3, edge_size_cap=2)

    def test_count_default_takes_every_edge_size(self, tmp_path, capsys):
        # {12,23} has 3 vertices, but count's default cap is n, not 3
        path = tmp_path / "path.txt"
        path.write_text("3\n1 2\n2 3\n")
        for extra, value in (([], 800), (["--edge-cap", "3"], 768)):
            assert main([
                "compute", "--kind", "count", "--pattern", str(path),
                "--n", "4", "--out", str(tmp_path / "out"), *extra,
            ]) == 0
            assert f"count n=4 value={value}\n" in capsys.readouterr().out

    def test_f_multi_kind(self, tmp_path):
        diag = tmp_path / "diag.txt"
        diag.write_text("3 2 2 2\n1 1 1\n2 2 2\n")
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "f", "--pattern", str(diag),
            "--n", "2", "--out", str(out), "--d", "3",
        ]) == 0
        lines = (out / "table.csv").read_text().strip().split("\n")[1:]
        assert [int(l.split(",")[1]) for l in lines] == [7]
        # ratio column is value / n^(d-1) for the cubic kind, and so is
        # the limit estimate
        assert lines[0].split(",")[2] == "7/4"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["limit_estimate"] == "7/4"

    def test_f_multi_dimension_mismatch_exit_2(self, tmp_path, identity_file):
        assert main([
            "compute", "--kind", "f", "--pattern", str(identity_file),
            "--n", "2", "--out", str(tmp_path / "out"), "--d", "3",
        ]) == 2

    def test_exe_kind(self, tmp_path, single_edge_file):
        out = tmp_path / "out"
        assert main([
            "compute", "--kind", "exe", "--pattern", str(single_edge_file),
            "--n", "1..3", "--out", str(out),
        ]) == 0
        lines = (out / "table.csv").read_text().strip().split("\n")[1:]
        assert [int(l.split(",")[1]) for l in lines] == [1, 2, 3]


class TestVerify:
    def test_report_files(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main([
            "verify", "--claims", "Lemma3,Thm7-recurrence", "--budget", "2",
            "--seed", "0", "--out", str(out),
        ]) == 0
        text = (out / "report.txt").read_text()
        assert "overall: PASS" in text
        data = json.loads((out / "report.json").read_text())
        assert data["overall_pass"] is True
        assert [c["claim"] for c in data["checks"]] == ["Lemma3", "Thm7-recurrence"]
        stdout = capsys.readouterr().out
        assert "PASS Lemma3" in stdout

    def test_unknown_claim_exit_2(self, tmp_path):
        assert main([
            "verify", "--claims", "Bogus", "--out", str(tmp_path / "r"),
        ]) == 2

    def test_unknown_claim_leaves_no_output_directory(self, tmp_path):
        out = tmp_path / "r"
        assert main(["verify", "--claims", "Bogus", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("claims", [",", ""])
    def test_empty_claim_selection_exit_2(self, tmp_path, claims):
        out = tmp_path / "r"
        assert main(["verify", "--claims", claims, "--out", str(out)]) == 2
        assert not (out / "report.txt").exists()

    def test_failed_instances_get_counterexample_files(self, tmp_path, monkeypatch):
        from patternex.verify import CheckResult, InstanceResult, VerificationReport

        failing = VerificationReport(
            (
                CheckResult(
                    "Lemma3",
                    {"n": 1},
                    (
                        InstanceResult(
                            {"n": 1},
                            False,
                            {"objects": {"host": "2\n1 2\n"}, "detail": 7},
                        ),
                    ),
                ),
            ),
            budget=1,
            seed=0,
        )
        monkeypatch.setattr("patternex.cli.run_checks", lambda *a, **k: failing)
        out = tmp_path / "rep"
        assert main(["verify", "--claims", "Lemma3", "--out", str(out)]) == 5
        written = out / "counterexamples" / "Lemma3_0_host.txt"
        assert written.read_text() == "2\n1 2\n"
        data = json.loads((out / "report.json").read_text())
        payload = data["checks"][0]["instances"][0]["payload"]
        assert payload["artifact_files"] == {"host": "counterexamples/Lemma3_0_host.txt"}
        assert "FAIL" in (out / "report.txt").read_text()

    def test_a_containment_defect_in_corner_pad_fails_lemma3_and_writes_the_report(
        self, tmp_path, monkeypatch
    ):
        # corner_pad re-checks that its output contains its input, so a
        # matrix engine that finds nothing makes it raise: the padded base
        # fails its instance, and the battery still writes its report
        monkeypatch.setattr("patternex.constructions.matrix_contains", lambda *args: None)
        out = tmp_path / "report"
        assert main(["verify", "--claims", "Lemma3,Thm7-recurrence", "--out", str(out)]) == 5
        data = json.loads((out / "report.json").read_text())
        assert [(c["claim"], c["passed"]) for c in data["checks"]] == [
            ("Lemma3", False),
            ("Thm7-recurrence", True),
        ]
        failed = [inst for inst in data["checks"][0]["instances"] if not inst["passed"]]
        assert [inst["params"] for inst in failed] == [
            {"base": "2x2:(1,1)(2,2)", "corner_pad": True, "n": 2}
        ]
        assert "corner_pad" in failed[0]["payload"]["error"]
        assert "FAIL" in (out / "report.txt").read_text()


class TestGenerate:
    def test_cyclic_pad_attestation(self, tmp_path, capsys):
        base = tmp_path / "h.txt"
        base.write_text("4\n1 3\n2 4\n")
        out = tmp_path / "out"
        assert main(["generate", "cyclic-pad", "--input", str(base), "--out", str(out)]) == 0
        attestation = (out / "attestation.txt").read_text()
        assert attestation == (
            "construction: cyclic-pad\nlength: 3\ncontains: yes\nboundary: yes\n"
        )
        assert capsys.readouterr().out == attestation
        padded = fileio.read_hypergraph(out / "cyclic_pad.txt")
        assert padded.n == 6

    def test_random_avoider_is_reproducible(self, tmp_path):
        pattern = tmp_path / "p.txt"
        pattern.write_text("2 2 2\n1 1\n1 2\n2 1\n2 2\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "generate", "random-avoider", "--pattern", str(pattern),
                "--n", "6", "--seed", "9", "--trials", "3", "--out", str(out),
            ]) == 0
            outs.append(_tree(out))
        assert outs[0] == outs[1]
        assert "stats.csv" in outs[0]

    def test_blowup_edge_count_line(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("4\n1 3\n1 4\n2 3\n")
        out = tmp_path / "out"
        assert main([
            "generate", "blowup", "--input", str(graph), "--t", "2", "--out", str(out),
        ]) == 0
        attestation = (out / "attestation.txt").read_text()
        assert "edges: 3" in attestation
        assert "expected-edges: 3" in attestation

    def test_blowup_avoid_recheck_failure_exit_4(self, tmp_path, single_edge_file):
        graph = tmp_path / "g.txt"
        graph.write_text("2\n1 2\n")
        out = tmp_path / "out"
        # the blow-up of a single crossing edge is a path, which contains
        # the single-edge pattern
        assert main([
            "generate", "blowup", "--input", str(graph), "--t", "3",
            "--avoid", str(single_edge_file), "--out", str(out),
        ]) == 4
        assert not out.exists()

    def test_unknown_construction_exit_2(self, tmp_path):
        assert main(["generate", "nonsense", "--out", str(tmp_path / "x")]) == 2

    def test_chain_writes_every_length(self, tmp_path, identity_file, capsys):
        out = tmp_path / "out"
        assert main([
            "generate", "chain", "--pattern", str(identity_file),
            "--length", "4", "--out", str(out),
        ]) == 0
        assert (out / "chain_len2.txt").exists()
        assert (out / "chain_len3.txt").exists()
        assert (out / "chain_len4.txt").exists()
        attestation = (out / "attestation.txt").read_text()
        assert attestation == (
            "construction: chain\n"
            "step-to-length-3: contains-previous: yes\n"
            "step-to-length-4: contains-previous: yes\n"
        )
        assert capsys.readouterr().out == attestation

    def test_corner_pad(self, tmp_path, identity_file, capsys):
        out = tmp_path / "out"
        assert main([
            "generate", "corner-pad", "--pattern", str(identity_file), "--out", str(out),
        ]) == 0
        padded = fileio.read_matrix(out / "corner_pad.txt")
        assert padded.ones == {(1, 2), (2, 3), (3, 1)}
        attestation = (out / "attestation.txt").read_text()
        assert attestation == "construction: corner-pad\ncontains-input: yes\n"
        assert capsys.readouterr().out == attestation

    def test_normalize_edges_report(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("6\n1\n1 2 3 4 5 6\n2 3\n")
        out = tmp_path / "out"
        assert main([
            "generate", "normalize-edges", "--input", str(graph),
            "--k", "2", "--d", "2", "--out", str(out),
        ]) == 0
        report = (out / "normalize_report.txt").read_text()
        assert "removed-small: 1" in report
        assert "truncated: 1" in report
        truncated = fileio.read_hypergraph(out / "normalized_trunc.txt")
        assert truncated.edges == {(1, 2, 3, 4), (2, 3)}

    @pytest.mark.parametrize("extra, mode", [([], "kd"), (["--cap", "(k+d)d"], "(k+d)d")])
    def test_normalize_edges_reads_its_cap_mode(self, tmp_path, extra, mode):
        graph = tmp_path / "g.txt"
        graph.write_text("6\n1 2 3 4 5 6\n")
        out = tmp_path / "out"
        assert main([
            "generate", "normalize-edges", "--input", str(graph),
            "--k", "2", "--d", "2", *extra, "--out", str(out),
        ]) == 0
        assert f"cap-mode: {mode}\n" in (out / "normalize_report.txt").read_text()

    def test_interval_contract(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("4\n1 3\n")
        out = tmp_path / "out"
        assert main([
            "generate", "interval-contract", "--input", str(graph),
            "--t", "2", "--out", str(out),
        ]) == 0
        assert fileio.read_hypergraph(out / "contracted.txt").edges == {(1, 2)}

    def test_cyclic_pattern_and_double(self, tmp_path):
        out = tmp_path / "out"
        assert main(["generate", "cyclic-pattern", "--d", "3", "--out", str(out)]) == 0
        matrix = fileio.read_matrix(out / "cyclic_pattern.txt")
        assert matrix.weight == 3
        graph = tmp_path / "g.txt"
        graph.write_text("3\n1 2\n1 3\n")
        out2 = tmp_path / "out2"
        assert main(["generate", "bipartite-double", "--input", str(graph), "--out", str(out2)]) == 0
        assert fileio.read_matrix(out2 / "doubled.txt").ones == {(1, 2), (1, 3)}


class TestContains:
    def test_matrix_query(self, tmp_path, identity_file, capsys):
        host = tmp_path / "host.txt"
        host.write_text("2 3 3\n1 1\n2 3\n3 2\n")
        assert main(["contains", "matrix", str(host), str(identity_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "contains"
        assert "axis 1: 1 2" in out
        assert "axis 2: 1 3" in out

    def test_matrix_avoids(self, tmp_path, identity_file, capsys):
        host = tmp_path / "host.txt"
        host.write_text("2 3 3\n1 3\n2 2\n3 1\n")
        assert main(["contains", "matrix", str(host), str(identity_file)]) == 0
        assert capsys.readouterr().out.strip() == "avoids"

    def test_hypergraph_query(self, tmp_path, single_edge_file, capsys):
        host = tmp_path / "host.txt"
        host.write_text("3\n1 2 3\n")
        assert main(["contains", "hypergraph", str(host), str(single_edge_file)]) == 0
        out = capsys.readouterr().out
        assert "contains" in out
        assert "f: 1 2" in out

    def test_hypergraph_avoids(self, tmp_path, single_edge_file, capsys):
        host = tmp_path / "host.txt"
        host.write_text("3\n1\n2\n3\n")
        assert main(["contains", "hypergraph", str(host), str(single_edge_file)]) == 0
        assert capsys.readouterr().out == "avoids\n"

    def test_wrong_matrix_embedding_exits_4(self, tmp_path, identity_file, capsys, monkeypatch):
        # (1,1) and (2,2) are 1-entries, but rows and columns 1 and 3 hold
        # the copy; the planted engine answer selects rows and columns 1, 2
        host = tmp_path / "host.txt"
        host.write_text("2 3 3\n1 1\n3 3\n")
        monkeypatch.setattr(containment, "_matrix_embedding_search", lambda *args: ((1, 2), (1, 2)))
        assert main(["contains", "matrix", str(host), str(identity_file)]) == 4
        assert capsys.readouterr().out == ""

    def test_wrong_hypergraph_embedding_exits_4(self, tmp_path, single_edge_file, capsys, monkeypatch):
        host = tmp_path / "host.txt"
        host.write_text("3\n1 3\n")
        monkeypatch.setattr(containment, "_hyper_embedding_search", lambda *args: ((1, 2), [0]))
        assert main(["contains", "hypergraph", str(host), str(single_edge_file)]) == 4
        assert capsys.readouterr().out == ""

    def test_malformed_pattern_is_named(self, single_edge_file, identity_file):
        # a matrix file given as the hypergraph pattern
        run = _run_cli("contains", "hypergraph", str(single_edge_file), str(identity_file))
        assert run.returncode == 2
        reason = "line 1: header must be a single vertex count"
        assert run.stderr == f"error: {identity_file}: {reason}\n"
        assert run.stdout == ""

    def test_matrix_past_the_placement_limit_exits_3(self, tmp_path):
        host = tmp_path / "host.txt"
        host.write_text("2 1 100000\n1 1\n")
        pattern = tmp_path / "pattern.txt"
        pattern.write_text("2 1 1\n1 1\n")
        run = _run_cli("contains", "matrix", str(host), str(pattern))
        assert run.returncode == 3
        assert run.stderr.startswith("capacity error: ")
        assert "Traceback" not in run.stderr
        assert run.stdout == ""


def _commands(pattern, out):
    return {
        "compute": ["compute", "--kind", "ex", "--pattern", str(pattern),
                    "--n", "1..3", "--out", str(out)],
        "verify": ["verify", "--claims", "Lemma3", "--budget", "2", "--out", str(out)],
        "generate": ["generate", "corner-pad", "--pattern", str(pattern), "--out", str(out)],
    }


class TestOutIsAFile:
    """An --out that names an existing file is refused as invalid input,
    exit 2, before the command does any work, and the file is kept."""

    @pytest.mark.parametrize("command", ["compute", "verify", "generate"])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_exit_2_without_traceback(self, tmp_path, identity_file, command, under):
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        out = taken / "sub" if under else taken
        run = _run_cli(*_commands(identity_file, out)[command])
        assert run.returncode == 2
        assert run.stderr.startswith("error: --out ")
        assert "Traceback" not in run.stderr
        assert run.stdout == ""
        assert taken.read_text() == "keep me\n"

    @pytest.mark.parametrize("command", ["compute", "verify", "generate"])
    def test_refused_before_any_work(self, tmp_path, identity_file, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before checking --out")

        for name in ("ex_matrix", "run_checks", "corner_pad"):
            monkeypatch.setattr(f"patternex.cli.{name}", no_work)
        taken = tmp_path / "taken"
        taken.write_text("keep me\n")
        assert main(_commands(identity_file, taken)[command]) == 2
        assert taken.read_text() == "keep me\n"


class TestDeterminism:
    def test_compute_byte_identical(self, tmp_path, identity_file):
        trees = []
        for name in ("one", "two"):
            out = tmp_path / name
            main(["compute", "--kind", "ex", "--pattern", str(identity_file),
                  "--n", "1..3", "--out", str(out)])
            trees.append(_tree(out))
        assert trees[0] == trees[1]

    def test_verify_byte_identical(self, tmp_path):
        trees = []
        for name in ("one", "two"):
            out = tmp_path / name
            main(["verify", "--claims", "Thm7-recurrence", "--budget", "2",
                  "--seed", "4", "--out", str(out)])
            trees.append(_tree(out))
        assert trees[0] == trees[1]


# every construction that reads a file, with the options it needs besides
GENERATE_FILE_INPUTS = {
    "corner-pad": ("--pattern", []),
    "bipartite-double": ("--input", []),
    "blowup": ("--input", ["--t", "2"]),
    "cyclic-pad": ("--input", []),
    "chain": ("--pattern", ["--length", "3"]),
    "normalize-edges": ("--input", ["--k", "2", "--d", "2"]),
    "random-avoider": ("--pattern", ["--n", "4"]),
    "interval-contract": ("--input", ["--t", "2"]),
}

# a graph on [4] whose edges are pairs across [2] and [3..4]
CROSSING_PAIRS = "4\n1 3\n2 4\n"


class TestFailedCommandWritesNothing:
    """A command that exits 2, 3 or 4 leaves no --out behind."""

    @pytest.mark.parametrize("construction", sorted(GENERATE_FILE_INPUTS))
    def test_generate_without_its_file_option(self, tmp_path, construction, capsys):
        option, rest = GENERATE_FILE_INPUTS[construction]
        out = tmp_path / "out"
        assert main(["generate", construction, *rest, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {construction} requires {option}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "construction, options, message, graph_text",
        [
            ("blowup", [], "blowup requires --t", CROSSING_PAIRS),
            ("blowup", ["--t", "1"], None, CROSSING_PAIRS),
            ("chain", [], "chain requires --length", CROSSING_PAIRS),
            ("normalize-edges", ["--d", "2"], "normalize-edges requires --k", CROSSING_PAIRS),
            ("random-avoider", [], "random-avoider requires --n", CROSSING_PAIRS),
            ("interval-contract", ["--t", "3"], None, CROSSING_PAIRS),
            # an edge that is not a pair raised ValueError before it was refused
            ("blowup", ["--t", "2"], "blowup_graph needs a 2-uniform graph", "4\n1 3 4\n"),
            ("blowup", ["--t", "2"], "blowup_graph needs a 2-uniform graph", "4\n3\n"),
        ],
    )
    def test_generate_with_a_missing_or_bad_option(
        self, tmp_path, identity_file, construction, options, message, graph_text, capsys
    ):
        graph = tmp_path / "g.txt"
        graph.write_text(graph_text)
        option = GENERATE_FILE_INPUTS[construction][0]
        source = identity_file if option == "--pattern" else graph
        out = tmp_path / "out"
        assert main(["generate", construction, option, str(source), *options,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if message is not None:
            assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, owner, option",
        [
            (["generate", "corner-pad", "--pattern", "{matrix}", "--avoid", "{graph}"],
             "corner-pad", "--avoid"),
            (["generate", "corner-pad", "--pattern", "{matrix}", "--input", "{graph}"],
             "corner-pad", "--input"),
            (["generate", "cyclic-pattern", "--d", "3", "--seed", "0"], "cyclic-pattern", "--seed"),
            (["generate", "chain", "--pattern", "{matrix}", "--length", "3", "--trials", "1"],
             "chain", "--trials"),
            (["generate", "random-avoider", "--pattern", "{matrix}", "--n", "4", "--cap", "kd"],
             "random-avoider", "--cap"),
            (["generate", "interval-contract", "--input", "{graph}", "--t", "2", "--d", "2"],
             "interval-contract", "--d"),
            (["compute", "--kind", "ex", "--pattern", "{matrix}", "--n", "2", "--d", "2"],
             "--kind ex", "--d"),
            (["compute", "--kind", "f", "--pattern", "{matrix}", "--n", "2", "--edge-cap", "1"],
             "--kind f", "--edge-cap"),
            (["compute", "--kind", "gex", "--pattern", "{graph}", "--n", "2", "--exact"],
             "--kind gex", "--exact"),
            (["compute", "--kind", "count", "--pattern", "{graph}", "--n", "2", "--d", "0"],
             "--kind count", "--d"),
        ],
    )
    def test_an_option_the_command_does_not_read(
        self, tmp_path, identity_file, single_edge_file, argv, owner, option, capsys, monkeypatch
    ):
        # refused before any input is read
        reads = []
        monkeypatch.setattr(fileio, "_read_text", lambda path: reads.append(path))
        out = tmp_path / "out"
        argv = [arg.format(matrix=identity_file, graph=single_edge_file) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {owner} does not read {option}\n"
        assert not out.exists() and not reads

    def test_cyclic_pattern_without_d(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["generate", "cyclic-pattern", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: cyclic-pattern requires --d\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, pattern, n",
        [("count", SINGLE_EDGE_TEXT, "3..5"), ("ex", IDENTITY2_TEXT, "7..9")],
    )
    def test_range_crossing_a_capacity_limit_writes_no_row(self, tmp_path, kind, pattern, n):
        path = tmp_path / "p.txt"
        path.write_text(pattern)
        out = tmp_path / "out"
        assert main(["compute", "--kind", kind, "--pattern", str(path),
                     "--n", n, "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize(
        "options",
        [["blowup", "--input", "{graph}", "--t", "1000000000"], ["cyclic-pattern", "--d", "100000"]],
    )
    def test_a_construction_past_its_size_limit_writes_nothing(
        self, tmp_path, single_edge_file, options, capsys
    ):
        out = tmp_path / "out"
        options = [o.format(graph=single_edge_file) for o in options]
        assert main(["generate", *options, "--out", str(out)]) == 3
        assert "exceeds the limit 2000000" in capsys.readouterr().err
        assert not out.exists()

    def test_a_chain_past_the_placement_limit_writes_nothing(self, tmp_path, identity_file, capsys):
        out = tmp_path / "out"
        assert main(["generate", "chain", "--pattern", str(identity_file),
                     "--length", "1000", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "the placement table of tail shape (999,) in (1000,)" in err
        assert "over the limit" in err
        assert not out.exists()

    def test_a_huge_range_stops_at_its_first_row_past_the_limit(self, tmp_path, identity_file):
        # the rows are drawn from the range one at a time: a list of all
        # 10**12 of them raised MemoryError before row 9 was refused
        out = tmp_path / "out"
        run = _run_cli("compute", "--kind", "ex", "--pattern", str(identity_file),
                       "--n", "1..1000000000000", "--out", str(out))
        assert run.returncode == 3
        assert run.stderr == "capacity error: 9x9 exceeds the cell limit 64\n"
        assert not out.exists()

    def test_failed_certificate_exits_4(self, tmp_path, identity_file, monkeypatch):
        monkeypatch.setattr("patternex.search.matrix_contains", lambda host, pattern: (host, pattern))
        out = tmp_path / "out"
        assert main(["compute", "--kind", "ex", "--pattern", str(identity_file),
                     "--n", "1..2", "--out", str(out)]) == 4
        assert not out.exists()


class TestUnreadableInput:
    """A missing path, a directory or a non-UTF-8 file is invalid input:
    exit 2 with an ``error:`` line, no traceback and no --out."""

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    @pytest.mark.parametrize("command", ["compute", "generate", "contains"])
    def test_exit_2_without_traceback(self, tmp_path, identity_file, command, case):
        bad = unreadable_path(tmp_path, case)
        out = tmp_path / "out"
        argv = {
            "compute": ["compute", "--kind", "ex", "--pattern", str(bad), "--n", "2",
                        "--out", str(out)],
            "generate": ["generate", "corner-pad", "--pattern", str(bad), "--out", str(out)],
            "contains": ["contains", "matrix", str(identity_file), str(bad)],
        }[command]
        run = _run_cli(*argv)
        assert run.returncode == 2
        assert run.stderr == f"error: cannot read {bad}: {UNREADABLE[case]}\n"
        assert "Traceback" not in run.stderr
        assert not out.exists()
