import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
_spec = importlib.util.spec_from_file_location("count_lines", _PATH)
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

# One line per kind the counter tells apart; the counted ones are marked.
SOURCE = '''"""Module docstring,
over two lines."""

import os  # counted
# a comment-only line


class A:  # counted
    """Class docstring."""

    x = 1  # counted, despite its comment

    def f(self):  # counted
        """Function docstring."""
        "a string statement, not a docstring"  # counted
        return os.sep  # counted


y = (1,  # counted
     2)  # counted
'''


def test_counted_lines_skip_docstrings_comments_and_blanks():
    assert count_lines.counted_lines(SOURCE) == 8
    assert count_lines.counted_lines(SOURCE) == sum("# counted" in ln for ln in SOURCE.splitlines())


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert count_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a                 8\nb                 1\ntotal             9\n"
