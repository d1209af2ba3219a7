"""Text formats for matrices and hypergraphs.

Matrix files: the first line is ``d n_1 ... n_d``; every following
nonempty line is one 1-entry as d space-separated coordinates.

Hypergraph files: the first line is ``n``; every following nonempty line
is one edge as space-separated strictly increasing vertices.

Lines whose first non-blank character is ``#`` are comments.  The
``format_*`` functions emit entries in sorted order with a trailing
newline, so the formats are byte-stable for identical objects; callers
write that text themselves.  The readers take UTF-8 files, and a path
that cannot be read (missing, a directory, not UTF-8) or content that
does not parse raises :class:`ParseError` naming the path.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InputError
from .structures import BinaryMatrix, OrderedHypergraph, make_hypergraph, make_matrix


class ParseError(InputError):
    """A matrix or hypergraph file did not match its format."""


def _data_lines(text: str) -> list[tuple[int, list[int]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append((lineno, [int(tok) for tok in line.split()]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer token in {line!r}") from exc
    return out


def parse_matrix(text: str) -> BinaryMatrix:
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty matrix file")
    lineno, header = lines[0]
    if len(header) < 2:
        raise ParseError(f"line {lineno}: header must be 'd n_1 ... n_d'")
    d = header[0]
    extents = header[1:]
    if len(extents) != d:
        raise ParseError(f"line {lineno}: header declares d={d} but lists {len(extents)} extents")
    ones = []
    for lineno, coord in lines[1:]:
        if len(coord) != d:
            raise ParseError(f"line {lineno}: expected {d} coordinates, got {len(coord)}")
        ones.append(tuple(coord))
    try:
        return make_matrix(extents, ones)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def format_matrix(matrix: BinaryMatrix) -> str:
    lines = [f"{matrix.d} " + " ".join(str(n) for n in matrix.extents)]
    for coord in matrix.sorted_ones():
        lines.append(" ".join(str(c) for c in coord))
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> OrderedHypergraph:
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty hypergraph file")
    lineno, header = lines[0]
    if len(header) != 1:
        raise ParseError(f"line {lineno}: header must be a single vertex count")
    n = header[0]
    edges = []
    for lineno, edge in lines[1:]:
        if any(edge[i] >= edge[i + 1] for i in range(len(edge) - 1)):
            raise ParseError(f"line {lineno}: edge {edge} is not strictly increasing")
        edges.append(tuple(edge))
    try:
        return make_hypergraph(n, edges)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def format_hypergraph(hypergraph: OrderedHypergraph) -> str:
    lines = [str(hypergraph.n)]
    for edge in hypergraph.sorted_edges():
        lines.append(" ".join(str(v) for v in edge))
    return "\n".join(lines) + "\n"


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read(path: str | Path, parse):
    text = _read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_matrix(path: str | Path) -> BinaryMatrix:
    return _read(path, parse_matrix)


def read_hypergraph(path: str | Path) -> OrderedHypergraph:
    return _read(path, parse_hypergraph)
