import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from specbound.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "code_lines.py"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _tool("code_lines").code_lines


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


def test_output_digests_give_each_exit_code_and_output_digest(tmp_path):
    tool = _tool("output_digests")
    drawn = ["curve", "--gallery", "a_hat", "--k", "2", "--grid", "40x30", "--format", "csv"]
    # a_hat is 4 x 4, so order 4 is a usage error and writes no file
    refused = ["check", "--gallery", "a_hat", "--k", "4"]
    lines = list(tool.digests([drawn, refused]))
    out = tmp_path / "curve.csv"
    assert main(drawn + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert lines == [f"0 {digest} {' '.join(drawn)}", f"1 - {' '.join(refused)}"]
    assert len({tuple(argv) for argv in tool.ARGVS}) == len(tool.ARGVS) > 180
