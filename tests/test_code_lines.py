import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60)


def test_code_lines_counts_code_without_docstrings_comments_or_blanks(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text('"""Module doc."""\n\n# a comment\ndef f(x):\n    """Doc."""\n    return (x +\n            1)\n')
    out = _run(str(source))
    assert out.returncode == 0
    assert out.stdout.split("\n")[-2].split() == ["3", "total"]


def test_code_lines_without_a_readable_file_exits_2_with_its_usage(tmp_path):
    # a glob that matches nothing leaves no path: that is no zero-line library
    for args in ((), (str(tmp_path),), (str(tmp_path / "missing.py"),)):
        out = _run(*args)
        assert out.returncode == 2, args
        assert out.stderr.startswith("usage: code_lines.py "), out.stderr
        assert "Traceback" not in out.stderr and out.stdout == ""
