"""Tests of the benchmark's own helpers: tail percentile choice, output
checks and exit code, seeded input generation, the oracle and the speed
clock."""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import patternex as px
from perfbench import clock, inputs, oracle, stats

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "count, percentile, beyond",
    [
        (1, 100.0, 0),
        (19, 100.0, 0),
        (20, 50.0, 10),
        (99, 50.0, 49),
        (100, 90.0, 10),
        (199, 90.0, 19),
        (200, 95.0, 10),
        (999, 95.0, 49),
        (1000, 99.0, 10),
        (10_000, 99.0, 100),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(count, percentile, beyond):
    samples = list(range(count, 0, -1))  # reversed, so the helper must sort
    value, p, b = stats.tail(samples)
    assert (p, b) == (percentile, beyond)
    assert value == count - beyond
    assert sum(1 for s in samples if s > value) == beyond


def test_speed_clock_ticks_and_runs_forward():
    before = signal.getsignal(signal.SIGALRM)
    speed = clock.SpeedClock()
    speed.start()
    try:
        readings = [speed.now()]
        end = perf_counter() + 0.35
        while perf_counter() < end:
            readings.append(speed.now())
    finally:
        speed.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(speed.samples) >= clock.WINDOW + 2  # the start's samples, then ticks
    assert all(b >= a for a, b in zip(readings, readings[1:]))
    assert readings[-1] > readings[0]


def test_tail_rejects_empty_samples():
    with pytest.raises(ValueError):
        stats.tail([])


@pytest.mark.parametrize("generator", sorted(inputs.GENERATORS))
def test_inputs_repeat_for_equal_seeds_and_differ_otherwise(generator):
    make = inputs.GENERATORS[generator]
    first = make(px, 7, 1)
    assert first == make(px, 7, 1)
    assert first != make(px, 8, 1)


@pytest.mark.parametrize("generator", sorted(inputs.GENERATORS))
def test_passes_draw_different_inputs(generator):
    make = inputs.GENERATORS[generator]
    assert make(px, 3, 0) != make(px, 3, 1)


def test_symmetry_images_share_the_canonical_id():
    extents, ones = (2, 3), [(1, 1), (1, 3), (2, 2)]
    key = inputs.canonical_matrix_id(extents, ones)
    for s in inputs.matrix_symmetries(2):
        assert inputs.canonical_matrix_id(*inputs.apply_matrix_symmetry(extents, ones, s)) == key
    edges = [(1, 2, 3), (3, 4)]
    assert inputs.canonical_hypergraph_id(4, inputs.reverse_edges(4, edges)) == (
        inputs.canonical_hypergraph_id(4, edges)
    )


def test_oracle_agrees_with_library_on_random_instances():
    rng = random.Random(5)
    for _ in range(150):
        side = rng.randint(2, 6)
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        host = px.BinaryMatrix(
            (side, side),
            frozenset((i, j) for i in range(1, side + 1) for j in range(1, side + 1) if rng.random() < 0.5),
        )
        pattern = px.BinaryMatrix(
            (k1, k2),
            frozenset((i, j) for i in range(1, k1 + 1) for j in range(1, k2 + 1) if rng.random() < 0.6),
        )
        expected = px.matrix_contains(host, pattern) is not None
        assert oracle.matrix_contains(host.extents, host.ones, pattern.extents, pattern.ones) == expected
    for _ in range(150):
        n, pn = rng.randint(2, 7), rng.randint(1, 4)
        host_edges = {tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))) for _ in range(rng.randint(0, 6))}
        pat_edges = {tuple(sorted(rng.sample(range(1, pn + 1), rng.randint(1, pn)))) for _ in range(rng.randint(1, 3))}
        host = px.OrderedHypergraph(n, frozenset(host_edges))
        pattern = px.OrderedHypergraph(pn, frozenset(pat_edges))
        expected = px.hypergraph_contains(host, pattern) is not None
        assert oracle.hypergraph_contains(n, host.sorted_edges(), pn, pattern.sorted_edges()) == expected


# A tiny extremal_tables run in a child process, so that its re-import of
# patternex cannot disturb this process.  ``wrong`` bumps one reference value.
_SCRIPT = """
import sys
sys.path.insert(0, {root!r})
from perfbench import inputs, run, workloads
inputs.MATRIX_PATTERNS[:] = [p for p in inputs.MATRIX_PATTERNS if p[1] == "I2"]
inputs.MATRIX_PATTERNS[0] = inputs.MATRIX_PATTERNS[0][:4] + (range(1, 4),)
inputs.HYPER_PATTERNS[:] = [p for p in inputs.HYPER_PATTERNS if p[1] == "H12-23"][:1]
reference = workloads.load_reference()
if {wrong}:
    reference["ex"][inputs.canonical_matrix_id((2, 2), [(1, 1), (2, 2)])]["3"] += 1
workloads.load_reference = lambda: reference
run.SETUP_REPEATS, run.SETUP_SECONDS = 1, 0.0
sys.exit(run.main(["--workload", "extremal_tables", "--seed", "1", "--seconds", "1"]))
"""


def _tiny_run(wrong: bool):
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(root=str(ROOT), wrong=wrong)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_correct_reference_passes_with_exit_code_zero():
    code, result = _tiny_run(wrong=False)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 7


def test_wrong_reference_value_fails_the_run():
    code, result = _tiny_run(wrong=True)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 7
