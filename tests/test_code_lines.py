"""``tools/code_lines.py`` counts code lines without docstrings, comments
or blank lines.  The script imports only the standard library, so it is
loaded here by its file path."""

import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


class Thing:
    """A class docstring."""

    def method(self):
        """A method docstring."""
        text = """a string
        that is not a docstring"""
        return (
            text,
            os.sep,
        )
'''


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_only_lines_outside_docstrings_comments_and_blanks(tmp_path, capsys):
    # import, class, def, the two lines of the string, return, its two
    # items and its closing bracket
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "empty.py").write_text('"""Only a docstring."""\n')
    code_lines = _load()
    assert code_lines.code_lines(tmp_path / "pkg" / "sample.py") == 9
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0  pkg/empty.py",
        "     9  pkg/sample.py",
        "     9  total",
    ]
