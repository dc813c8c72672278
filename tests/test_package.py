import os
import subprocess
import sys
from pathlib import Path

import pixelret


def test_every_exported_name_resolves():
    missing = [name for name in pixelret.__all__ if not hasattr(pixelret, name)]
    assert missing == []
    assert len(set(pixelret.__all__)) == len(pixelret.__all__)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about 0.8 s and 48 MiB to import; nothing needs it.
    path = [str(Path(pixelret.__file__).resolve().parent.parent)]
    path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, pixelret, pixelret.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
