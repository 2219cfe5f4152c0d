"""The traced benchmark (``perfbench/run.py --trace 1``) wraps library
functions and methods by name (``perfbench/benchlib/layers.py``). Renaming
or deleting any of them makes every traced run exit 2. This canary installs
the wrappers and takes them off again, so the tier-1 suite catches a
missing name too."""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

INSTALL_AND_RESTORE = """
from benchlib.layers import install
from benchlib.spans import Tracer

install(Tracer()).restore()
"""


def test_every_traced_name_exists():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        str(REPO_ROOT / folder) for folder in ("src", "perfbench")
    )
    done = subprocess.run(
        [sys.executable, "-c", INSTALL_AND_RESTORE],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
