"""The behaviour of the package's 15 immutable record types.

Each record compares and hashes by its class and its fields, prints as
``Name(field=value, ...)`` (the matrix and the hypergraph print their
shape), refuses assignment and deletion, takes its fields by position or
keyword with the defaults below, validates on construction, and survives
pickle, copy and deepcopy.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from patternex import (
    BinaryMatrix,
    ExtremalTable,
    GeneratorConfig,
    HypergraphEmbedding,
    InputError,
    MatrixEmbedding,
    NormalizeReport,
    OrderedHypergraph,
    PartsSpec,
    PermutationSpec,
    PostconditionError,
    SearchCertificate,
    TableRow,
    TrialStats,
)
from patternex.verify import CheckResult, InstanceResult, VerificationReport

MATRIX = BinaryMatrix((2, 3), frozenset({(1, 1), (2, 3)}))
GRAPH = OrderedHypergraph(3, frozenset({(1, 2), (2, 3)}))
ROWS = (TableRow(1, 1), TableRow(2, 3, "witness_n2.txt"))
FAILED = InstanceResult({"n": 2}, False, {"error": "boom", "objects": {"host": "2\n1 2\n"}})
CHECK = CheckResult("Lemma2", {"n": [1, 2]}, (InstanceResult({"n": 1}, True), FAILED), ("a note",))
REPORT = VerificationReport((CHECK,), budget=2, seed=7)

# (class, fields by name, repr)
RECORDS = [
    (BinaryMatrix, {"extents": (2, 3), "ones": MATRIX.ones}, "BinaryMatrix(2x3, weight=2)"),
    (OrderedHypergraph, {"n": 3, "edges": GRAPH.edges}, "OrderedHypergraph(n=3, edges=2)"),
    (PermutationSpec, {"k": 2, "perms": ((2, 1),)}, "PermutationSpec(k=2, perms=((2, 1),))"),
    (PartsSpec, {"boundaries": (0, 2, 4)}, "PartsSpec(boundaries=(0, 2, 4))"),
    (MatrixEmbedding, {"axis_indices": ((1, 3), (2,))}, "MatrixEmbedding(axis_indices=((1, 3), (2,)))"),
    (
        HypergraphEmbedding,
        {"vertex_map": (2, 3), "edge_map": (((1, 2), (2, 3)),)},
        "HypergraphEmbedding(vertex_map=(2, 3), edge_map=(((1, 2), (2, 3)),))",
    ),
    (
        SearchCertificate,
        {"value": 2, "witness": MATRIX, "verified": True},
        "SearchCertificate(value=2, witness=BinaryMatrix(2x3, weight=2), verified=True)",
    ),
    (TableRow, {"n": 2, "value": 3, "witness_ref": "w.txt"}, "TableRow(n=2, value=3, witness_ref='w.txt')"),
    (
        ExtremalTable,
        {"pattern_id": "p", "kind": "ex", "dimension": 2, "rows": ROWS},
        "ExtremalTable(pattern_id='p', kind='ex', dimension=2, rows=(TableRow(n=1, value=1, "
        "witness_ref=None), TableRow(n=2, value=3, witness_ref='witness_n2.txt')))",
    ),
    (
        NormalizeReport,
        {"cap_mode": "kd", "cap": 4, "removed_small": 1, "truncated": 0, "multiplicities": (((1, 2), 1),)},
        "NormalizeReport(cap_mode='kd', cap=4, removed_small=1, truncated=0, "
        "multiplicities=(((1, 2), 1),))",
    ),
    (
        GeneratorConfig,
        {"pattern": MATRIX, "side": 8, "p": 0.25, "seed": 7, "trials": 3},
        "GeneratorConfig(pattern=BinaryMatrix(2x3, weight=2), side=8, p=0.25, seed=7, trials=3)",
    ),
    (
        TrialStats,
        {"trial": 0, "seed": 7, "initial_weight": 10, "deletions": 2, "final_weight": 8},
        "TrialStats(trial=0, seed=7, initial_weight=10, deletions=2, final_weight=8)",
    ),
    (
        InstanceResult,
        {"params": {"n": 2}, "passed": False, "payload": {"error": "boom"}},
        "InstanceResult(params={'n': 2}, passed=False, payload={'error': 'boom'})",
    ),
    (
        CheckResult,
        {"claim": "Lemma2", "parameters": {"n": 2}, "instances": (), "notes": ("a",)},
        "CheckResult(claim='Lemma2', parameters={'n': 2}, instances=(), notes=('a',))",
    ),
    (
        VerificationReport,
        {"checks": (), "budget": 2, "seed": 7},
        "VerificationReport(checks=(), budget=2, seed=7)",
    ),
]
UNHASHABLE = {InstanceResult, CheckResult}  # they hold dicts
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_record_type_is_pinned():
    assert len({cls for cls, _, _ in RECORDS}) == 15


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword_agree(cls, fields, text):
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_equality_and_hash_by_class_and_fields(cls, fields, text):
    record = cls(**fields)
    twin = cls(**copy.deepcopy(fields))
    assert record == twin and not record != twin
    assert record != tuple(fields.values())
    assert record.__eq__(tuple(fields.values())) is NotImplemented
    other_kind = TableRow(1, 1) if cls is not TableRow else PartsSpec((0, 1))
    assert record != other_kind
    with pytest.raises(TypeError):
        record < twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(tuple(fields.values()))


def test_a_record_differing_in_one_field_is_unequal():
    assert TableRow(2, 3) != TableRow(2, 4)
    assert TableRow(2, 3) != TableRow(2, 3, "w.txt")
    assert BinaryMatrix((2, 3), frozenset()) != BinaryMatrix((3, 2), frozenset())
    assert InstanceResult({"n": 1}, True) != InstanceResult({"n": 1}, True, {"x": 1})
    with pytest.raises(TypeError):
        hash(REPORT)  # its checks hold dicts


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, fields, text):
    record = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=IDS)
def test_pickle_copy_and_deepcopy_round_trip(cls, fields, text):
    record = cls(**fields)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert twin == record
        assert repr(twin) == text


def test_copies_share_or_copy_a_payload_as_a_shallow_or_deep_copy_does():
    assert copy.copy(FAILED).payload is FAILED.payload
    deep = copy.deepcopy(FAILED)
    assert deep.payload == FAILED.payload and deep.payload is not FAILED.payload
    assert pickle.loads(pickle.dumps(REPORT)).to_dict() == REPORT.to_dict()


def test_defaults():
    assert TableRow(2, 3).witness_ref is None
    assert TableRow(n=2, value=3) == TableRow(2, 3, None)
    first, second = InstanceResult({}, True), InstanceResult(params={}, passed=True)
    assert first.payload == {} and first.payload is not second.payload
    assert CheckResult("Lemma2", {}, ()).notes == ()
    assert GeneratorConfig(MATRIX, 8, 0.25, 7).trials == 1
    # a trial's row of stats.csv, with no default: the run's p, target
    # and generator name are the config's
    assert TrialStats.__slots__ == ("trial", "seed", "initial_weight", "deletions", "final_weight")
    with pytest.raises(TypeError, match="missing argument 'final_weight'"):
        TrialStats(0, 7, 10, 2)


ERRORS = [
    (lambda: BinaryMatrix((2,), frozenset()), InputError, "matrix dimension must be >= 2, got 1"),
    (lambda: BinaryMatrix((2, 0), frozenset()), InputError, "extents must be positive, got (2, 0)"),
    (
        lambda: BinaryMatrix((2, 2), frozenset({(1, 1, 1)})),
        InputError,
        "coordinate (1, 1, 1) has length 3, expected 2",
    ),
    (
        lambda: BinaryMatrix((2, 2), frozenset({(1, 3)})),
        InputError,
        "coordinate (1, 3) out of range on axis 2 (extent 2)",
    ),
    (lambda: OrderedHypergraph(-1, frozenset()), InputError, "vertex count must be nonnegative, got -1"),
    (lambda: OrderedHypergraph(2, frozenset({()})), InputError, "empty edges are not allowed"),
    (lambda: OrderedHypergraph(3, frozenset({(2, 1)})), InputError, "edge (2, 1) is not strictly increasing"),
    (lambda: OrderedHypergraph(2, frozenset({(1, 3)})), InputError, "edge (1, 3) out of range for n=2"),
    (lambda: PermutationSpec(0, ((),)), InputError, "length must be positive, got 0"),
    (lambda: PermutationSpec(2, ()), InputError, "at least one permutation is required (d >= 2)"),
    (lambda: PermutationSpec(2, ((1, 1),)), InputError, "(1, 1) is not a permutation of [2]"),
    (
        lambda: PartsSpec((1, 2)),
        InputError,
        "boundaries must start at 0 and contain >= 1 part, got (1, 2)",
    ),
    (lambda: PartsSpec((0, 2, 2)), InputError, "boundaries must be strictly increasing, got (0, 2, 2)"),
    (
        lambda: MatrixEmbedding(((1, 2), (2, 2))),
        InputError,
        "axis 2 indices (2, 2) are not strictly increasing",
    ),
    (
        lambda: ExtremalTable("p", "ex", 2, (TableRow(2, 1), TableRow(1, 1))),
        PostconditionError,
        "table rows not strictly sorted by n: [2, 1]",
    ),
    (
        lambda: ExtremalTable("p", "ex", 2, (TableRow(1, 2), TableRow(2, 1))),
        PostconditionError,
        "extremal values decreased: [2, 1]",
    ),
    (lambda: GeneratorConfig(MATRIX, 0, 0.5, 1), InputError, "side must be positive, got 0"),
    (lambda: GeneratorConfig(MATRIX, 4, 0.0, 1), InputError, "density must lie in (0, 1], got 0.0"),
    (lambda: GeneratorConfig(MATRIX, 4, 0.5, -1), InputError, "seed must be an unsigned 64-bit integer"),
    (lambda: GeneratorConfig(MATRIX, 4, 0.5, 1, 0), InputError, "trials must be >= 1, got 0"),
    (
        lambda: GeneratorConfig(MATRIX, 4, 0.5, 1, 2**32),
        InputError,
        "trials must be below 2^32, got 4294967296",
    ),
    (
        lambda: GeneratorConfig(BinaryMatrix((2, 2), frozenset({(1, 1)})), 4, 0.5, 1),
        InputError,
        "pattern weight must be >= 2, got 1",
    ),
]


@pytest.mark.parametrize("build, error, message", ERRORS, ids=[m for _, _, m in ERRORS])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_count_tables_may_decrease():
    table = ExtremalTable("p", "count", 2, (TableRow(1, 2), TableRow(2, 1)))
    assert [row.value for row in table.rows] == [2, 1]


def test_to_dict_copies_every_field_so_editing_it_leaves_the_report_unchanged():
    text = REPORT.render_text()
    data = REPORT.to_dict()
    assert data == {
        "budget": 2,
        "seed": 7,
        "overall_pass": False,
        "checks": [
            {
                "claim": "Lemma2",
                "parameters": {"n": [1, 2]},
                "instances": (
                    {"params": {"n": 1}, "passed": True, "payload": {}},
                    {
                        "params": {"n": 2},
                        "passed": False,
                        "payload": {"error": "boom", "objects": {"host": "2\n1 2\n"}},
                    },
                ),
                "notes": ("a note",),
                "summary": data["checks"][0]["summary"],
                "passed": False,
            }
        ],
    }
    # the edits cli.cmd_verify makes before it renders report.txt
    for check in data["checks"]:
        check["parameters"]["n"].append(3)
        for inst in check["instances"]:
            inst["params"]["extra"] = 1
            if inst["payload"].pop("objects", None):
                inst["payload"]["artifact_files"] = {"host": "counterexamples/x.txt"}
                inst["payload"]["seed"] = 7
    assert REPORT.render_text() == text
    assert CHECK.parameters == {"n": [1, 2]}
    assert FAILED.params == {"n": 2}
    assert FAILED.payload == {"error": "boom", "objects": {"host": "2\n1 2\n"}}
    assert CHECK.instances[0].payload == {}


def test_importing_the_package_and_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "import patternex.verify, patternex.cli\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout == "[]\n"
