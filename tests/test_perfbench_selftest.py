"""The benchmark's own self-tests pass against this checkout.

``perfbench/selftest.py`` checks the spec generator, the failure checks, the
compare verdicts and the tracer; its ``TracerInstall`` test fails when the
solver stops calling a name the tracer wraps (``propagate_piece``,
``shoot_phi``, ...), so a refactor that bypasses one shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=300, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr[-4000:]
