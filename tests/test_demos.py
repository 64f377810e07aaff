import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_every_demo_runs():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
        # a value printed without a repr of its own
        assert " object at 0x" not in proc.stdout, demo.name
