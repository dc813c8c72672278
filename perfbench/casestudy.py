"""The model-building half of the toy case study (criterion 7's recipe):
ILT reference masks for the training layouts, one dataset per layout,
merge, split, initialise and train.

train_model.py runs it on the four training families for the frozen
model; the build_model workload runs it on two short layouts with fewer
epochs, so both follow one recipe.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from pixelret import (
    build_dataset,
    deployment_raster,
    generate_test_pattern,
    init_model,
    merge_datasets,
    optimize_mask,
    split_dataset,
    train,
)
from pixelret.cli import CANONICAL_PATTERNS, RunConfig, load_config

from tracer import Tracer

TRAIN_FAMILIES = ("iso40", "iso140", "ls40", "ls140")


def toy_config(seed: int) -> RunConfig:
    return load_config(None, True, {"seed": seed})


def family_patterns() -> dict:
    return {n: generate_test_pattern(**CANONICAL_PATTERNS[n]) for n in TRAIN_FAMILIES}


@dataclass
class Built:
    targets: dict  # layout name -> deployment raster (the ILT target)
    ilt: dict  # layout name -> IltResult
    dataset: object  # split PixelDataset
    model: object  # trained ModelParams
    history: dict


def build_model(cfg: RunConfig, patterns: dict, epochs: int, tracer: Tracer) -> Built:
    """Target layouts to trained ModelParams."""
    tiling, iip_cfg, litho, icfg = cfg.tiling(), cfg.iip(), cfg.litho(), cfg.ilt()
    cap = int(cfg.raw["sampling"]["per_class_cap"])
    targets, ilt, parts = {}, {}, []
    for name, pattern in patterns.items():
        with tracer.span("pipeline.deployment_raster"):
            targets[name] = deployment_raster(pattern, tiling)
        with tracer.span("ilt.optimize_mask"):
            ilt[name] = optimize_mask(targets[name], litho, icfg)
        with tracer.span("tiling.build_dataset"):
            parts.append(
                build_dataset(
                    pattern, ilt[name].mask, tiling, iip_cfg,
                    per_class_cap=cap, seed=cfg.sampling_seed,
                )
            )
    with tracer.span("tiling.merge_split"):
        ds = split_dataset(
            merge_datasets(parts),
            tuple(cfg.raw["sampling"]["split_fractions"]),
            cfg.split_seed,
        )
    with tracer.span("classifier.init_model"):
        model0 = init_model(cfg.arch(), cfg.init_seed)
    with tracer.span("classifier.train"):
        model, history = train(
            model0, ds, dataclasses.replace(cfg.train(), epochs=epochs)
        )
    return Built(targets, ilt, ds, model, history)
