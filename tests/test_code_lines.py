"""``tools/code_lines.py`` counts the lines that hold a Python token,
without docstrings, comments or blank lines."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        y = (x +
             1)
        return """not a docstring,
        on two lines"""
'''


def test_code_lines_counts_token_lines_only():
    # import, class, def, the two lines of y, and the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["7", "a.py", "1", "b.py", "8", "total"]
