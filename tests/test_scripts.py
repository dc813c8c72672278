"""Each measurement script in scripts/ runs to completion with its smallest
arguments and prints the figures its docstring promises.  The scripts call
and patch private names of the library, so a refactor that renames one
fails here instead of leaving the script broken."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "build_dataset_rss.py": ([], [
        "dataset sha256", "compute_iip", "build_dataset", "peak RSS", "dataset holds",
    ]),
    "inference_stages.py": (["--reps", "1"], [
        "nproc", "toy arch", "default arch", "total", "raster crop", "planes crop",
        "distinct windows", "sort and bit compare",
    ]),
    "model_build_stages.py": (["--reps", "1"], [
        "nproc", "ms/step", "mask sha256", "final_fidelity", "build_dataset", "backward batch",
        "train 1 epoch",
    ]),
    "recorrect_rss.py": (["--requests", "2"], [
        "map sha256", "first request", "median of the rest", "from the class map",
        "a kept window", "inference", "peak RSS",
    ]),
}


def test_every_script_is_run():
    assert sorted(RUNS) == sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_runs(script):
    args, keys = RUNS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    for key in keys:
        assert key in done.stdout, (key, done.stdout[-2000:])
