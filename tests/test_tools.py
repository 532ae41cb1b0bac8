import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_code_lines_skips_blank_lines_comments_and_docstrings():
    source = '''"""Module docstring,
on two lines."""

# a comment
X = 1  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return text
'''
    # X = 1, class A:, def f, the two lines of text, return
    assert _code_lines()(source) == 6


def test_code_lines_reports_every_module_of_src_and_their_total():
    out = subprocess.run([sys.executable, str(SCRIPT), "src"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    rows = [line.split() for line in out]
    modules = {path: int(count) for count, path in rows[:-1]}
    assert rows[-1][1] == "total" and int(rows[-1][0]) == sum(modules.values())
    assert set(modules) == {str(p.relative_to(ROOT)) for p in (ROOT / "src").rglob("*.py")}
    assert all(count > 0 for count in modules.values())
