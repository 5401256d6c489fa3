"""Each experiment script in ``scripts/`` runs to completion on tiny
arguments, so a change to the package's API cannot break one unnoticed."""

import os
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
