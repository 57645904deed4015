"""The line counter of tools/loc.py on a small fixture source."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", LOC)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


# a comment line
class A:
    """Class docstring."""

    x = """a string value,
    not a docstring"""

    def f(self):
        """Function docstring."""
        return (
            os.sep
        )


async def g():
    """Coroutine docstring."""
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, class, the two lines of x, def and the three lines of the return
    # hold code, and so does async def, whose body is its docstring.
    assert loc.count(SOURCE) == (22, 9)


def test_prints_each_file_and_the_total(tmp_path, capsys):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(SOURCE)
    two.write_text("x = 1\n\n")
    assert loc.main([str(one), str(two)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    22      9 one.py",
        "     2      1 two.py",
        "    24     10 total",
    ]
