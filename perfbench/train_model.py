"""Train the frozen case-study model that the recorrect workload loads,
and record its provenance next to it.

Recipe: toy profile, seed 0, the four training families, the toy
profile's 24 epochs.  Writes model/case_study.bin and
model/provenance.json under this directory.  Run from anywhere:

    python3 perfbench/train_model.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import benchenv

benchenv.prepare()

from pixelret import save_model  # noqa: E402

import casestudy  # noqa: E402
from tracer import Tracer  # noqa: E402

MODEL_DIR = Path(__file__).resolve().parent / "model"
MODEL_FILE = MODEL_DIR / "case_study.bin"
PROVENANCE_FILE = MODEL_DIR / "provenance.json"
SEED = 0


def main() -> int:
    cfg = casestudy.toy_config(SEED)
    epochs = int(cfg.raw["train"]["epochs"])
    t0 = time.perf_counter()
    built = casestudy.build_model(cfg, casestudy.family_patterns(), epochs, Tracer(False))
    seconds = time.perf_counter() - t0
    MODEL_DIR.mkdir(exist_ok=True)
    save_model(built.model, MODEL_FILE)
    provenance = {
        "recipe": (
            "toy profile; ILT on " + ", ".join(casestudy.TRAIN_FAMILIES)
            + f"; build_dataset per family; merge; split; init_model; train {epochs} epochs"
        ),
        "seed": SEED,
        "epochs": epochs,
        "commit": benchenv.git_commit(),
        "host": benchenv.host_record(),
        "seconds": round(seconds, 1),
        "samples": len(built.dataset),
        "best_val_accuracy": max(built.history["val_accuracy"]),
        "ilt_fidelity": {n: r.final_fidelity for n, r in built.ilt.items()},
        "model_checksum": built.model.checksum(),
        "file_bytes": MODEL_FILE.stat().st_size,
    }
    PROVENANCE_FILE.write_text(json.dumps(provenance, indent=2, sort_keys=True) + "\n")
    print(json.dumps(provenance, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
