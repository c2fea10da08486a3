"""The demos and the README quick start run end to end. Demo 03 trains
three 30-epoch runs, which takes about 12 s."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True
    )


def test_fast_demos_exit_0():
    for demo in (
        "01_scene_gallery.py", "02_noise_injection.py", "03_training_comparison.py",
        "04_full_pipeline.py",
    ):
        proc = run_python([os.path.join("demos", demo)])
        assert proc.returncode == 0, (demo, proc.stderr)


def test_readme_quick_start_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None, "README has no quick start code block"
    proc = run_python(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr
