"""`tools/code_lines.py` counts a module's code lines: no docstring,
comment or blank line counts."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_docstring_comment_and_blank_do_not_count():
    source = '"""A module docstring\nover two lines."""\n\n# a comment\nx = 1\ny = x + 1\n'
    assert code_lines.code_lines(source) == 2
