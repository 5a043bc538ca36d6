"""The code-line counter behind the ROADMAP's size gate."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# A comment.
X = 1  # counts


def f(a,
      b):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return text


class C:
    """Class docstring."""
'''


def test_counts_code_lines_only():
    # X, the two lines of f's signature, the two lines of text, return, class C.
    assert code_lines.code_lines(SOURCE) == 7
