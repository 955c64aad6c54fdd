"""Every narrative script under demos/ runs to completion, and the command
line imports on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_cli_imports_without_numpy():
    # a None entry in sys.modules makes any import of numpy fail
    proc = _run("-c", "import sys; sys.modules['numpy'] = None; import cesplit.cli")
    assert proc.returncode == 0, proc.stderr
