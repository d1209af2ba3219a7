"""Command-line harness: compute tables, verify claims, run constructions.

Exit codes are a stable contract: 0 success, 2 invalid input, 3 capacity
limit, 4 failed postcondition re-check, 5 a checked claim failed (verify
writes every report file first).  Each command builds the text of all its
output files first and writes them with :func:`_write_out` once it has
succeeded, so a command that exits 2, 3 or 4 creates no ``--out``.  An
option that the command, its kind or its construction does not read
exits 2 before any work.  All outputs are deterministic given the
inputs, the seed, and the budget; nothing embeds timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import fileio
from .constructions import (
    CAP_MODES,
    RNG_ALGORITHM,
    GeneratorConfig,
    analytic_expected_weight,
    blowup_graph,
    chain_patterns,
    corner_pad,
    bipartite_double,
    cyclic_pad,
    cyclic_pattern,
    default_density,
    interval_contract,
    normalize_edges,
    random_avoider_trials,
)
from .containment import (
    hypergraph_contains,
    matrix_contains,
    verify_hypergraph_embedding,
    verify_matrix_embedding,
)
from .errors import CapacityError, InputError, PostconditionError
from .search import (
    ExtremalTable,
    TableRow,
    count_avoiders,
    estimate_limit,
    ex_matrix,
    exe_hyper,
    exi_hyper,
    f_multi,
    gex_graph,
    table_to_csv,
)
from .verify import run_checks

# each compute kind: the options it reads beyond --pattern and --n
COMPUTE_KINDS = {
    "ex": (),
    "f": ("d",),
    "gex": (),
    "exe": ("edge_cap", "exact"),
    "exi": ("edge_cap", "exact"),
    "count": ("edge_cap", "exact"),
}
# each construction: the options it requires, its file option first
# ("pattern" a matrix, "input" a hypergraph) if it reads one, and the
# options it reads when given
CONSTRUCTIONS = {
    "corner-pad": (("pattern",), ()),
    "bipartite-double": (("input",), ()),
    "blowup": (("input", "t"), ("avoid",)),
    "cyclic-pattern": (("d",), ()),
    "cyclic-pad": (("input",), ()),
    "chain": (("pattern", "length"), ()),
    "normalize-edges": (("input", "k", "d"), ("cap",)),
    "random-avoider": (("pattern", "n"), ("p", "seed", "trials")),
    "interval-contract": (("input", "t"), ()),
}


def _parse_n_range(text: str) -> range:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise InputError(f"cannot parse range {text!r}, expected A..B or a single integer") from exc
    if lo < 1 or hi < lo:
        raise InputError(f"invalid range {text!r}")
    return range(lo, hi + 1)


def _parse_density(text: str) -> Fraction:
    """``--p`` as an exact rational, from a decimal such as 0.3 or a
    ratio such as 1/8; a refusal quotes the text as given."""
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse density {text!r}, expected a decimal or a ratio") from exc
    if not 0 < p <= 1:
        raise InputError(f"density must lie in (0, 1], got {text}")
    return p


def _check_out(args) -> None:
    """Refuse an ``--out`` that is, or lies under, something other than
    a directory, before the command does any work."""
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise InputError(f"--out {args.out}: {path} exists and is not a directory")
            return


def _refuse_unread(args, owner: str, reads, every) -> None:
    """Refuse an option that some entry of ``every`` reads and ``owner``
    does not, when it was given, before the command does any work."""
    for opt in sorted(set().union(*every) - set(reads)):
        if getattr(args, opt) is not None:
            raise InputError(f"{owner} does not read --{opt.replace('_', '-')}")


def _write_out(args, files: dict[str, str]) -> Path:
    """Create ``--out`` and write each file, given as its path under
    ``--out`` and its text.  Commands call this once, after every
    computation and re-check has passed, so a failed command writes
    nothing."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for ref, text in files.items():
        path = out / ref
        path.parent.mkdir(exist_ok=True)
        path.write_text(text)
    return out


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# compute


def cmd_compute(args) -> int:
    _check_out(args)
    kind = args.kind
    _refuse_unread(args, f"--kind {kind}", COMPUTE_KINDS[kind], COMPUTE_KINDS.values())
    ns = _parse_n_range(args.n)
    if kind in ("ex", "f"):
        pattern = fileio.read_matrix(args.pattern)
        if args.d is not None and args.d != pattern.d:  # only kind f reads --d
            raise InputError(f"--d {args.d} does not match pattern dimension {pattern.d}")
        format_witness = fileio.format_matrix
    else:
        pattern = fileio.read_hypergraph(args.pattern)
        format_witness = fileio.format_hypergraph
    files = {}
    rows = []
    for n in ns:
        if kind == "count":
            value = count_avoiders(pattern, n, edge_size_cap=n if args.exact else args.edge_cap)
            rows.append(TableRow(n, value))
            continue
        if kind == "ex":
            cert = ex_matrix(pattern, n)
        elif kind == "f":
            cert = f_multi(pattern, pattern.d, n)
        elif kind == "gex":
            cert = gex_graph(pattern, n)
        elif kind == "exe":
            cert = exe_hyper(pattern, n, edge_cap=n if args.exact else args.edge_cap)
        else:
            cert = exi_hyper(pattern, n, edge_cap=n if args.exact else args.edge_cap)
        ref = f"witness_n{n}.txt"
        files[ref] = format_witness(cert.witness)
        rows.append(TableRow(n, cert.value, ref))
    dimension = pattern.d if kind in ("ex", "f") else 2
    table = ExtremalTable(Path(args.pattern).stem, kind, dimension, tuple(rows))
    files["table.csv"] = table_to_csv(table)
    summary = {
        "kind": kind,
        "pattern_id": table.pattern_id,
        "dimension": dimension,
        "rows": [
            {
                "n": r.n,
                "value": r.value,
                "ratio": None if table.primary_ratio(r) is None else str(table.primary_ratio(r)),
                "witness_file": r.witness_ref,
            }
            for r in rows
        ],
        "limit_estimate": None if kind == "count" else str(estimate_limit(table)),
        "ratio_monotone": table.ratios_monotone(),
    }
    files["summary.json"] = _json_text(summary)
    out = _write_out(args, files)
    for r in rows:
        print(f"{kind} n={r.n} value={r.value}")
    print(f"wrote {len(rows)} rows to {out / 'table.csv'}")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    _check_out(args)
    claims = None
    if args.claims != "all":
        claims = [c.strip() for c in args.claims.split(",") if c.strip()]
    report = run_checks(claims, budget=args.budget, seed=args.seed)
    data = report.to_dict()
    files = {}
    for check in data["checks"]:
        for idx, inst in enumerate(check["instances"]):
            objects = inst["payload"].pop("objects", None)
            if objects:
                refs = {}
                for name, text in sorted(objects.items()):
                    ref = f"counterexamples/{check['claim']}_{idx}_{name}.txt"
                    files[ref] = text
                    refs[name] = ref
                inst["payload"]["artifact_files"] = refs
                inst["payload"]["seed"] = args.seed
    files["report.txt"] = report.render_text()
    files["report.json"] = _json_text(data)
    _write_out(args, files)
    for check in report.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.claim} ({len(check.instances)} instances)")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 5


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    _check_out(args)
    name = args.construction
    required, optional = CONSTRUCTIONS[name]
    missing = [f"--{opt}" for opt in required if getattr(args, opt) is None]
    if missing:
        raise InputError(f"{name} requires {' and '.join(missing)}")
    _refuse_unread(args, name, required + optional, [r + o for r, o in CONSTRUCTIONS.values()])
    if required[0] == "pattern":
        given = fileio.read_matrix(args.pattern)
    elif required[0] == "input":
        given = fileio.read_hypergraph(args.input)
    files = {}
    if name == "corner-pad":
        # corner_pad re-checks that its output contains the input
        files["corner_pad.txt"] = fileio.format_matrix(corner_pad(given))
        lines = ["contains-input: yes"]
    elif name == "bipartite-double":
        doubled = bipartite_double(given)
        files["doubled.txt"] = fileio.format_matrix(doubled)
        lines = [
            f"weight: {doubled.weight}",
            f"edges: {given.edge_count}",
            f"weight-equals-edges: {'yes' if doubled.weight == given.edge_count else 'no'}",
        ]
    elif name == "blowup":
        forbidden = fileio.read_hypergraph(args.avoid) if args.avoid else None
        blown = blowup_graph(given, args.t)
        files["blowup.txt"] = fileio.format_hypergraph(blown)
        lines = [
            f"t: {args.t}",
            f"edges: {blown.edge_count}",
            f"expected-edges: {(args.t - 1) * given.edge_count}",
        ]
        if forbidden is not None:
            if hypergraph_contains(blown, forbidden) is not None:
                raise PostconditionError("blow-up contains the forbidden pattern")
            lines.append("avoids-pattern: yes")
    elif name == "cyclic-pattern":
        files["cyclic_pattern.txt"] = fileio.format_matrix(cyclic_pattern(args.d))
        lines = [f"d: {args.d}"]
    elif name == "cyclic-pad":
        padded = cyclic_pad(given)
        files["cyclic_pad.txt"] = fileio.format_hypergraph(padded)
        # cyclic_pad re-checks that its output contains the input and
        # anchors every part boundary
        lines = [f"length: {padded.edge_count}", "contains: yes", "boundary: yes"]
    elif name == "chain":
        # chain_patterns re-checks that each step contains its predecessor
        chain = chain_patterns(given, args.length)
        for matrix in chain:
            files[f"chain_len{matrix.extents[0]}.txt"] = fileio.format_matrix(matrix)
        lines = [f"step-to-length-{m.extents[0]}: contains-previous: yes" for m in chain[1:]]
    elif name == "normalize-edges":
        cap = "kd" if args.cap is None else args.cap
        trimmed, truncated, report = normalize_edges(given, args.k, args.d, cap)
        files["normalized_min.txt"] = fileio.format_hypergraph(trimmed)
        files["normalized_trunc.txt"] = fileio.format_hypergraph(truncated)
        report_lines = [
            f"cap-mode: {report.cap_mode}",
            f"cap: {report.cap}",
            f"supported-cap-modes: {' '.join(CAP_MODES)}",
            f"removed-small: {report.removed_small}",
            f"truncated: {report.truncated}",
            f"max-multiplicity: {report.max_multiplicity}",
        ]
        for edge, count in report.multiplicities:
            report_lines.append("multiplicity " + " ".join(map(str, edge)) + f": {count}")
        files["normalize_report.txt"] = "\n".join(report_lines) + "\n"
        lines = report_lines[:6]
    elif name == "random-avoider":
        p = default_density(given, args.n) if args.p is None else _parse_density(args.p)
        seed = 0 if args.seed is None else args.seed
        trials = 1 if args.trials is None else args.trials
        config = GeneratorConfig(pattern=given, side=args.n, p=p, seed=seed, trials=trials)
        # an exact target can pass the 4,300 digits that str writes by
        # default: it is 9,397 characters long for the 17x17 all-ones
        # pattern at side 20
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            target = str(analytic_expected_weight(given, args.n, p))
        finally:
            sys.set_int_max_str_digits(limit)
        csv_lines = ["trial,seed,initial_weight,deletions,final_weight"]
        text_lines = []
        for matrix, stats in random_avoider_trials(config):
            files[f"avoider_trial{stats.trial}.txt"] = fileio.format_matrix(matrix)
            csv_lines.append(
                f"{stats.trial},{stats.seed},{stats.initial_weight},"
                f"{stats.deletions},{stats.final_weight}"
            )
            text_lines += [
                f"trial: {stats.trial}",
                f"seed: {stats.seed}",
                f"rng: {RNG_ALGORITHM}",
                f"p: {p}",
                f"initial-weight: {stats.initial_weight}",
                f"deletions: {stats.deletions}",
                f"final-weight: {stats.final_weight}",
                f"analytic-target: {target}",
                "",
            ]
        files["stats.csv"] = "\n".join(csv_lines) + "\n"
        files["stats.txt"] = "\n".join(text_lines).rstrip("\n") + "\n"
        lines = [f"trials: {trials}", "avoids: yes"]
    else:  # interval-contract
        contracted = interval_contract(given, args.t)
        files["contracted.txt"] = fileio.format_hypergraph(contracted)
        lines = [
            f"t: {args.t}",
            f"vertices: {contracted.n}",
            f"edges: {contracted.edge_count}",
        ]
    attestation = "\n".join([f"construction: {name}", *lines]) + "\n"
    files["attestation.txt"] = attestation
    _write_out(args, files)
    sys.stdout.write(attestation)
    return 0


# ---------------------------------------------------------------------------
# contains


def _matrix_lines(embedding) -> list[str]:
    return [
        f"axis {axis}: " + " ".join(map(str, sel))
        for axis, sel in enumerate(embedding.axis_indices, start=1)
    ]


def _hypergraph_lines(embedding) -> list[str]:
    return ["f: " + " ".join(map(str, embedding.vertex_map))] + [
        "g: {" + ",".join(map(str, pat_edge)) + "} -> {" + ",".join(map(str, host_edge)) + "}"
        for pat_edge, host_edge in embedding.edge_map
    ]


# each contains kind: its reader, decider, re-checker and embedding lines
CONTAINS_KINDS = {
    "matrix": (fileio.read_matrix, matrix_contains, verify_matrix_embedding, _matrix_lines),
    "hypergraph": (
        fileio.read_hypergraph,
        hypergraph_contains,
        verify_hypergraph_embedding,
        _hypergraph_lines,
    ),
}


def cmd_contains(args) -> int:
    """Print the least embedding, after re-checking it against the definition."""
    read, contains, recheck, lines = CONTAINS_KINDS[args.kind]
    host = read(args.host)
    pattern = read(args.pattern)
    embedding = contains(host, pattern)
    if embedding is None:
        print("avoids")
        return 0
    if not recheck(host, pattern, embedding):
        raise PostconditionError(f"the embedding {embedding} fails its re-check")
    print("contains")
    print("\n".join(lines(embedding)))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternex",
        description="pattern containment, exact extremal tables, and "
        "verified constructions for 0-1 matrices and ordered hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute an extremal table")
    p_compute.add_argument("--kind", required=True, choices=COMPUTE_KINDS)
    p_compute.add_argument("--pattern", required=True, help="pattern file")
    p_compute.add_argument("--n", required=True, help="range A..B or single value")
    p_compute.add_argument("--out", required=True, help="output directory")
    p_compute.add_argument("--d", type=int, default=None, help="expected dimension (kind f)")
    p_compute.add_argument("--edge-cap", type=int, default=None, help="candidate edge size cap")
    p_compute.add_argument(
        "--exact", action="store_true", default=None, help="disable the edge size cap"
    )
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="verify claims over configured ranges")
    p_verify.add_argument("--claims", default="all", help="comma-separated claim names or 'all'")
    p_verify.add_argument("--budget", type=int, default=4, help="size budget (max n)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", required=True, help="output directory")
    p_verify.set_defaults(func=cmd_verify)

    p_generate = sub.add_parser("generate", help="run a construction and re-check it")
    p_generate.add_argument("construction", choices=CONSTRUCTIONS)
    p_generate.add_argument("--pattern", help="matrix pattern file")
    p_generate.add_argument("--input", help="hypergraph input file")
    p_generate.add_argument("--avoid", help="hypergraph pattern the output must avoid")
    p_generate.add_argument("--t", type=int, default=None)
    p_generate.add_argument("--d", type=int, default=None)
    p_generate.add_argument("--k", type=int, default=None)
    p_generate.add_argument("--n", type=int, default=None)
    p_generate.add_argument("--p", default=None, help="density, such as 0.3 or 1/8")
    p_generate.add_argument("--length", type=int, default=None)
    # defaults None, so that an unread option is seen; random-avoider
    # takes seed 0 and 1 trial, normalize-edges cap mode kd
    p_generate.add_argument("--seed", type=int, default=None)
    p_generate.add_argument("--trials", type=int, default=None)
    p_generate.add_argument("--cap", choices=CAP_MODES, default=None)
    p_generate.add_argument("--out", required=True)
    p_generate.set_defaults(func=cmd_generate)

    p_contains = sub.add_parser("contains", help="decide containment of two files")
    p_contains.add_argument("kind", choices=CONTAINS_KINDS)
    p_contains.add_argument("host")
    p_contains.add_argument("pattern")
    p_contains.set_defaults(func=cmd_contains)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except PostconditionError as exc:
        print(f"postcondition failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
