"""The fast demos run end to end. Demo 03 trains three 30-epoch runs
(about 18 s) and is left to be run by hand."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fast_demos_exit_0():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    for demo in ("01_scene_gallery.py", "02_noise_injection.py", "04_full_pipeline.py"):
        proc = subprocess.run(
            [sys.executable, os.path.join("demos", demo)],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, (demo, proc.stderr)
