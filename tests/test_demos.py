"""Every demo script, and the README's library quick start, runs to
completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"## Library quick start\s+```python\n(.*?)```", readme, re.S)
    assert match, "README has no library quick start block"
    proc = _run_python(["-c", match.group(1)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "[1][0][0][2 0][0][1]" in proc.stdout.splitlines()
