"""Round trips and error handling for the text formats."""

import pytest
from hypothesis import given, settings

from patternex import fileio, make_hypergraph, make_matrix
from patternex.fileio import ParseError

from test_structures import matrices


def test_matrix_round_trip(tmp_path):
    m = make_matrix([3, 2], [(1, 2), (3, 1)])
    path = tmp_path / "m.txt"
    path.write_text(fileio.format_matrix(m))
    assert fileio.read_matrix(path) == m
    assert path.read_text() == "2 3 2\n1 2\n3 1\n"


def test_hypergraph_round_trip(tmp_path):
    h = make_hypergraph(4, [(2, 4), (1,)])
    path = tmp_path / "h.txt"
    path.write_text(fileio.format_hypergraph(h))
    assert fileio.read_hypergraph(path) == h
    assert path.read_text() == "4\n1\n2 4\n"


def test_comments_and_blanks_ignored():
    text = "# a matrix\n2 2 2\n\n1 1\n# done\n2 2\n"
    assert fileio.parse_matrix(text) == make_matrix([2, 2], [(1, 1), (2, 2)])


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_matrix_format_round_trip(m):
    assert fileio.parse_matrix(fileio.format_matrix(m)) == m


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 2\n1 1\n",  # header declares d=2 but lists one extent
        "2 2 2\n1\n",  # wrong coordinate count
        "2 2 2\n1 x\n",
        "2 2 2\n1 1\n1 1\n",  # duplicate entry
    ],
)
def test_bad_matrix_files(text):
    with pytest.raises(ParseError):
        fileio.parse_matrix(text)


@pytest.mark.parametrize(
    "text",
    ["", "3 3\n", "3\n2 1\n", "3\n1 4\n", "3\n1 2\n1 2\n"],
)
def test_bad_hypergraph_files(text):
    with pytest.raises(ParseError):
        fileio.parse_hypergraph(text)


UNREADABLE = {
    "missing": "No such file or directory",
    "directory": "Is a directory",
    "not_utf8": "not UTF-8 text",
}


def unreadable_path(tmp_path, case):
    """A path that cannot be read as text, for each key of UNREADABLE."""
    path = tmp_path / "input.txt"
    if case == "directory":
        path.mkdir()
    elif case == "not_utf8":
        path.write_bytes(b"2 2 2\n1 \xff\n")
    return path


@pytest.mark.parametrize("read", [fileio.read_matrix, fileio.read_hypergraph])
@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_file_is_a_parse_error_naming_the_path(tmp_path, read, case):
    path = unreadable_path(tmp_path, case)
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"cannot read {path}: {UNREADABLE[case]}"


@pytest.mark.parametrize(
    "read, text, reason",
    [
        (fileio.read_matrix, "2 2\n1 1\n", "line 1: header declares d=2 but lists 1 extents"),
        (fileio.read_matrix, "", "empty matrix file"),
        (fileio.read_hypergraph, "2 2 2\n1 1\n", "line 1: header must be a single vertex count"),
        (fileio.read_hypergraph, "3\n2 1\n", "line 2: edge [2, 1] is not strictly increasing"),
    ],
)
def test_malformed_file_is_a_parse_error_naming_the_path(tmp_path, read, text, reason):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"{path}: {reason}"
