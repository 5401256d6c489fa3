"""Each experiment script in ``scripts/`` runs to completion on tiny
arguments, so a change to the package's API cannot break one unnoticed, and
the line counter counts as its docstring says."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("two_arcs_experiment.py", ["--n-train", "200", "--n-test", "20", "-k", "20", "--knn-k", "20"]),
    ("bovw_textures_experiment.py", ["--per-class", "3"]),
    ("dsd_blobs_experiment.py", ["--schedule", "D2,S1@0.3,D1", "--plain-epochs", "4", "--seeds", "1"]),
])
def test_script_exits_0(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_src_lines_counts_code_and_docstring_lines(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "src_lines.py")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, docs = map(int, proc.stdout.split())
    assert code > 0 and docs > 0
    sample = tmp_path / "sample.py"
    sample.write_text('''"""Module

doc."""

# a comment
X = (1,
     2)


class A:
    """One line."""

    def f(self):
        s = """not a
        docstring"""  # a string spanning lines holds both
        return s
''')
    # code: X's two lines, class, def and the three of f's body; docstrings 3 + 1
    assert runpy.run_path(str(ROOT / "scripts" / "src_lines.py"))["count"](sample) == (7, 4)
