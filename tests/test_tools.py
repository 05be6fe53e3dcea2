"""tools/code_lines.py: the code-line count that simplicity claims cite."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "code_lines.py"

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """A class docstring."""

    size = (
        1,
        2,
    )

    def f(self):
        """A function docstring."""
        text = """a string
        that is no docstring"""
        return text
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fixture_counts_code_lines_only():
    # import, class, the four lines of size, def, the two of text, return
    assert load_tool().code_lines(FIXTURE) == 10


def test_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert [line.split()[0] for line in out.splitlines()] == ["10", "1", "11"]
    assert out.splitlines()[-1].split()[1] == "total"
