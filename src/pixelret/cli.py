"""Command-line surface for the correction flow.

One JSON config file drives every stage; a key the defaults lack, or a
value of another type than its default, is refused, and the CNN's input
side and class count follow from tiling and iip.  Flags override
individual fields and the fully resolved config is echoed into each
output directory, so any produced artifact can be regenerated from the
files next to it.

Commands: gen-patterns, rasterize, simulate, ilt, prep-data, train,
predict-map, correct, evaluate, bench.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
from pathlib import Path

from . import classifier as cls
from . import ilt as ilt_mod
from . import iip as iip_mod
from . import layout as layout_mod
from . import litho as litho_mod
from . import pipeline as pipe
from . import tiling as tiling_mod
from .errors import ConfigError, FormatError, PixelretError
from .grid import write_graymap

# Production-leaning defaults; --toy swaps in a fast profile for CI and
# desk-scale experiments.
DEFAULT_CONFIG: dict = {
    "seed": 0,
    "litho": {"sigma_nm": 25.0, "radius_nm": 75.0, "resist_threshold": 0.5},
    "ilt": {
        "steps": 60,
        "learning_rate": 8.0e5,
        "sigmoid_steepness_resist": 25.0,
        "sigmoid_steepness_mask": 2.0,
        "init_mode": "target_copy",
        "binarize_threshold": 0.5,
    },
    "iip": {
        "num_classes": 100,
        "iik_sigma_nm": 10.0,
        "iik_radius_nm": 30.0,
        "threshold": 0.5,
    },
    "tiling": {
        "interaction_distance": 400.0,
        "px_per_nm": 2.0,
        "compression_factor": 8,
        "row_reducer": "mean",
        "col_reducer": "max",
    },
    "arch": {
        "conv_blocks": [
            {"filters": 8, "kernel": 3, "stride": 2},
            {"filters": 16, "kernel": 3, "stride": 2},
            {"filters": 32, "kernel": 3, "stride": 2},
        ],
    },
    "train": {"epochs": 15, "batch_size": 32, "learning_rate": 0.05},
    "sampling": {"per_class_cap": 300, "split_fractions": [0.8, 0.1, 0.1]},
    "correction": {"workers": 1, "cleanup_min_area": 25.0, "cleanup_min_edge": 0.0},
}

# The toy profile trades resolution for speed.  Its reducers are mean/mean
# (max saturates on 4nm blocks and caps end-to-end mask IoU) and its net
# ends in a 1x1 feature map, which keeps edge placement sharp where global
# average pooling over a larger map would blur it.
TOY_OVERRIDES: dict = {
    "iip": {"num_classes": 20},
    "tiling": {
        "interaction_distance": 100.0,
        "px_per_nm": 1.0,
        "compression_factor": 4,
        "row_reducer": "mean",
        "col_reducer": "mean",
    },
    "arch": {
        "conv_blocks": [
            {"filters": 8, "kernel": 3, "stride": 2},
            {"filters": 16, "kernel": 3, "stride": 2},
            {"filters": 32, "kernel": 3, "stride": 2},
            {"filters": 64, "kernel": 3, "stride": 1},
            {"filters": 64, "kernel": 3, "stride": 1},
        ],
    },
    "train": {"epochs": 24, "batch_size": 32, "learning_rate": 0.01},
}

CANONICAL_PATTERNS: dict[str, dict] = {
    "iso40": {"topology": "isolated_line", "width": 40, "length": 400},
    "iso60": {"topology": "isolated_line", "width": 60, "length": 400},
    "iso100": {"topology": "isolated_line", "width": 100, "length": 400},
    "iso140": {"topology": "isolated_line", "width": 140, "length": 400},
    "ls40": {"topology": "line_space", "width": 40, "pitch": 80, "count": 5, "length": 400},
    "ls140": {"topology": "line_space", "width": 140, "pitch": 280, "count": 5, "length": 400},
    "sq100": {"topology": "square", "width": 100},
    "sq200": {"topology": "square", "width": 200},
}


def _deep_merge(base: dict, overlay: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in overlay.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


# ---------------------------------------------------------------------------
# Resolved configuration
# ---------------------------------------------------------------------------

class RunConfig:
    """Validated view over the merged config dict with typed accessors."""

    def __init__(self, raw: dict):
        self.raw = raw
        self._validate()

    def _validate(self) -> None:
        # Construct everything once so invalid fields fail here with names.
        self.litho()
        self.ilt()
        self.arch()
        self.train()
        self.correction()
        s = self.raw["sampling"]
        cap = s["per_class_cap"]
        if type(cap) is not int or cap < 1:
            raise ConfigError(f"sampling.per_class_cap must be an integer >= 1, got {cap!r}")
        if len(s["split_fractions"]) != 3:
            raise ConfigError(
                f"sampling.split_fractions needs 3 entries, got {s['split_fractions']}"
            )

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    @property
    def px_per_nm(self) -> float:
        return float(self.raw["tiling"]["px_per_nm"])

    def litho(self) -> litho_mod.LithoConfig:
        s = self.raw["litho"]
        return litho_mod.LithoConfig(
            sigma_nm=s["sigma_nm"],
            radius_nm=s["radius_nm"],
            resist_threshold=s["resist_threshold"],
        )

    def ilt(self) -> ilt_mod.IltConfig:
        return ilt_mod.IltConfig(**self.raw["ilt"])

    def iik(self) -> litho_mod.Kernel:
        s = self.raw["iip"]
        return iip_mod.make_iik(
            "gaussian", s["iik_sigma_nm"], s["iik_radius_nm"], self.px_per_nm
        )

    def iip(self) -> iip_mod.IipConfig:
        s = self.raw["iip"]
        return iip_mod.IipConfig(
            num_classes=s["num_classes"], iik=self.iik(), threshold=s["threshold"]
        )

    def tiling(self) -> tiling_mod.TilingConfig:
        return tiling_mod.TilingConfig(**self.raw["tiling"])

    def arch(self) -> cls.ArchDescriptor:
        blocks = [cls.ConvBlock(**b) for b in self.raw["arch"]["conv_blocks"]]
        return cls.ArchDescriptor(
            self.tiling().output_side, int(self.raw["iip"]["num_classes"]), blocks
        )

    def train(self) -> cls.TrainConfig:
        t = self.raw["train"]
        return cls.TrainConfig(
            epochs=t["epochs"],
            batch_size=t["batch_size"],
            learning_rate=t["learning_rate"],
            seed=self.seed + 3,
        )

    def correction(self, workers: int | None = None) -> pipe.CorrectionConfig:
        s = self.raw["correction"]
        return pipe.CorrectionConfig(
            tiling=self.tiling(),
            iip=self.iip(),
            workers=workers if workers is not None else int(s["workers"]),
            cleanup=pipe.CleanupRules(
                min_area=s["cleanup_min_area"], min_edge=s["cleanup_min_edge"]
            ),
        )

    # Derived per-stage seeds, so stages decorrelate but stay reproducible.
    @property
    def sampling_seed(self) -> int:
        return self.seed

    @property
    def split_seed(self) -> int:
        return self.seed + 1

    @property
    def init_seed(self) -> int:
        return self.seed + 2


# What a leaf of the config takes, by the type of its DEFAULT_CONFIG value.
# A bool is never a number here, although Python counts it as an int.
_LEAF_TYPES: dict[type, tuple[tuple[type, ...], str]] = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


def _check_keys(given, known, name: str = "") -> None:
    """Refuse, by dotted name, any key in given that known (DEFAULT_CONFIG
    or a part of it) lacks, and any value of another type than its default
    (see _LEAF_TYPES); each item of a list is checked against the first
    default item.
    """
    if isinstance(known, dict):
        if not isinstance(given, dict):
            raise ConfigError(f"config key {name} must hold a JSON object")
        for k, v in given.items():
            key = f"{name}.{k}" if name else k
            if k not in known:
                raise ConfigError(f"unknown config key {key}")
            _check_keys(v, known[k], key)
    elif isinstance(known, list):
        if not isinstance(given, list):
            raise ConfigError(f"config key {name} must hold a JSON list")
        for i, item in enumerate(given):
            _check_keys(item, known[0], f"{name}[{i}]")
    else:
        types, what = _LEAF_TYPES[type(known)]
        if isinstance(given, bool) or not isinstance(given, types):
            raise ConfigError(f"config key {name} must hold {what}, got {given!r}")


def load_config(path: str | None, toy: bool, overrides: dict) -> RunConfig:
    """Defaults, toy profile, config file, then overrides; a key the
    defaults lack or a value of another type is refused, and an echoed
    config's `_command` is dropped."""
    raw = copy.deepcopy(DEFAULT_CONFIG)
    if toy:
        raw = _deep_merge(raw, TOY_OVERRIDES)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
        if not isinstance(user, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        user.pop("_command", None)
        _check_keys(user, DEFAULT_CONFIG)
        raw = _deep_merge(raw, user)
    _check_keys(overrides, DEFAULT_CONFIG)
    raw = _deep_merge(raw, overrides)
    return RunConfig(raw)


def _echo_config(cfg: RunConfig, outdir: Path, command: str) -> None:
    resolved = dict(cfg.raw)
    resolved["_command"] = command
    (outdir / "config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True) + "\n"
    )


def _outdir(args) -> Path:
    """Create --out; commands call it after reading and computing, so a
    failed command leaves no empty directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_pattern(path: str) -> layout_mod.LayoutPattern:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise FormatError(f"cannot read layout file {path}: {e}") from None
    return layout_mod.parse_layout(text)


def _write_pattern(p: layout_mod.LayoutPattern, path: Path, px_per_nm: float) -> None:
    # The file format stores integer nm; grids finer than 1 px/nm can place
    # vertices on sub-nm lattice points, so snap before writing.
    if px_per_nm > 1.0 and not p.is_empty:
        p = layout_mod.snap_pattern(p)
    path.write_text(layout_mod.write_layout(p))


def _ref_mask(cfg: RunConfig, pattern: layout_mod.LayoutPattern) -> ilt_mod.IltResult:
    target = pipe.deployment_raster(pattern, cfg.tiling())
    return ilt_mod.optimize_mask(target, cfg.litho(), cfg.ilt())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_patterns(args, cfg: RunConfig) -> int:
    if args.topology is not None:
        params = {
            "topology": args.topology,
            "width": args.width,
            "pitch": args.pitch,
            "count": args.count,
            "length": args.length,
        }
        params = {k: v for k, v in params.items() if v is not None}
        names = {args.name or "pattern": params}
    else:
        names = CANONICAL_PATTERNS
    patterns = {n: layout_mod.generate_test_pattern(**kw) for n, kw in names.items()}
    out = _outdir(args)
    for name, p in patterns.items():
        (out / f"{name}.layout").write_text(layout_mod.write_layout(p))
        print(f"wrote {out / f'{name}.layout'}")
    return 0


def cmd_rasterize(args, cfg: RunConfig) -> int:
    p = _read_pattern(args.layout)
    margin = args.margin if args.margin is not None else cfg.tiling().interaction_distance
    g = layout_mod.rasterize(p, cfg.px_per_nm, layout_mod.raster_region(p, margin))
    out = _outdir(args)
    write_graymap(g, out / "raster.pgm")
    print(f"raster {g.width}x{g.height} px -> {out / 'raster.pgm'}")
    return 0


def cmd_simulate(args, cfg: RunConfig) -> int:
    p = _read_pattern(args.layout)
    litho = cfg.litho()
    g = layout_mod.rasterize(p, cfg.px_per_nm, layout_mod.raster_region(p, cfg.tiling().interaction_distance))
    kernel = litho.kernel(g.px_per_nm)
    aerial = litho_mod.aerial_image(g, kernel)
    printed = litho_mod.print_image(aerial, litho.resist_threshold)
    out = _outdir(args)
    write_graymap(aerial, out / "aerial.pgm")
    write_graymap(printed, out / "printed.pgm")
    fidelity = pipe.iou(printed, g)
    print(f"printed-vs-target IoU {fidelity:.4f}; wrote aerial.pgm, printed.pgm")
    return 0


def cmd_ilt(args, cfg: RunConfig) -> int:
    p = _read_pattern(args.layout)
    result = _ref_mask(cfg, p)
    out = _outdir(args)
    write_graymap(result.mask, out / "ref_mask.pgm")
    ilt_mod.save_loss_history(result, out / "loss.csv")
    _write_pattern(layout_mod.vectorize(result.mask), out / "ref_mask.layout", cfg.px_per_nm)
    print(
        f"ILT fidelity {result.final_fidelity:.4f} "
        f"(loss {result.loss_history[0]:.5f} -> {min(result.loss_history):.5f}); "
        f"wrote ref_mask.pgm, ref_mask.layout, loss.csv"
    )
    return 0


def cmd_prep_data(args, cfg: RunConfig) -> int:
    patterns = [_read_pattern(path) for path in args.layouts]
    tiling = cfg.tiling()
    iip_cfg = cfg.iip()
    parts = []
    for path, p in zip(args.layouts, patterns):
        result = _ref_mask(cfg, p)
        ds = tiling_mod.build_dataset(
            p,
            result.mask,
            tiling,
            iip_cfg,
            per_class_cap=cfg.raw["sampling"]["per_class_cap"],
            seed=cfg.sampling_seed,
        )
        print(f"{path}: {len(ds)} samples, ILT fidelity {result.final_fidelity:.4f}")
        parts.append(ds)
    merged = parts[0] if len(parts) == 1 else tiling_mod.merge_datasets(parts)
    merged = tiling_mod.split_dataset(
        merged, tuple(cfg.raw["sampling"]["split_fractions"]), cfg.split_seed
    )
    out = _outdir(args)
    tiling_mod.save_dataset(merged, out / "dataset")
    sizes = {name: int(merged.split_indices(name).size) for name in tiling_mod.SPLIT_NAMES}
    print(f"dataset: {len(merged)} samples {sizes} -> {out / 'dataset'}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    ds = tiling_mod.load_dataset(args.data)
    arch = cfg.arch()
    model0 = cls.init_model(arch, cfg.init_seed)
    model, history = cls.train(model0, ds, cfg.train())
    out = _outdir(args)
    cls.save_model(model, out / "model.bin")
    with open(out / "history.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "val_accuracy"])
        for i, (tl, va) in enumerate(
            zip(history["train_loss"], history["val_accuracy"])
        ):
            w.writerow([i, f"{tl:.6f}", f"{va:.6f}"])
    print(
        f"best val accuracy {model.train_meta['final_val_accuracy']:.4f} "
        f"(epoch {model.train_meta['best_epoch']}); wrote model.bin, history.csv"
    )
    return 0


def cmd_predict_map(args, cfg: RunConfig) -> int:
    p = _read_pattern(args.layout)
    model = cls.load_model(args.model)
    ccfg = cfg.correction(workers=args.workers)
    iip_map = pipe.predict_map(model, p, ccfg)
    out = _outdir(args)
    iip_mod.export_iip(iip_map, out / "iip.pgm", ccfg.iip.num_classes)
    print(f"predicted map {iip_map.grid.width}x{iip_map.grid.height} -> {out / 'iip.pgm'}")
    return 0


def cmd_correct(args, cfg: RunConfig) -> int:
    p = _read_pattern(args.layout)
    model = cls.load_model(args.model)
    ccfg = cfg.correction(workers=args.workers)
    result = pipe.correct(p, model, ccfg)
    out = _outdir(args)
    iip_mod.export_iip(result.iip_map, out / "iip.pgm", ccfg.iip.num_classes)
    write_graymap(result.threshold, out / "threshold.pgm")
    write_graymap(result.grid, out / "cleanup.pgm")
    _write_pattern(result.pattern, out / "mask.layout", cfg.px_per_nm)
    print(
        f"corrected mask: {len(result.pattern.polygons)} polygons -> mask.layout "
        f"(stages: iip.pgm, threshold.pgm, cleanup.pgm)"
    )
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    p = _read_pattern(args.layout)
    model = cls.load_model(args.model)
    ccfg = cfg.correction(workers=args.workers)
    # Correct first: a mismatched model fails before ILT's cost is paid.
    corrected = pipe.correct(p, model, ccfg)
    result = _ref_mask(cfg, p)
    ref_iip = iip_mod.compute_iip(result.mask, ccfg.iip.iik)
    cm = pipe.confusion_matrix(corrected.iip_map, ref_iip, ccfg.iip.num_classes)
    out = _outdir(args)
    pipe.write_confusion_csv(cm, out / "confusion.csv")
    score = pipe.iou(corrected.grid, result.mask)
    metrics = {
        "iou_vs_reference": score,
        "class_accuracy": cm.accuracy(),
        "within_one_class_accuracy": cm.within_one_accuracy(),
        "pixels": cm.total(),
        "ilt_fidelity": result.final_fidelity,
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2) + "\n")
    print(
        f"IoU vs reference {score:.4f}; class accuracy {cm.accuracy():.4f}; "
        f"within-1 {cm.within_one_accuracy():.4f}; wrote confusion.csv, metrics.json"
    )
    return 0


def cmd_bench(args, cfg: RunConfig) -> int:
    p = _read_pattern(args.layout)
    model = cls.load_model(args.model)
    ccfg = cfg.correction(workers=1)
    report = pipe.bench_scaling(model, p, ccfg, args.workers, repeats=args.repeats)
    out = _outdir(args)
    pipe.write_scaling_csv(report, out / "scaling.csv")
    for row in report.rows:
        print(
            f"workers {row['workers']}: {row['wall_seconds']:.3f}s "
            f"speedup {row['speedup']:.2f} efficiency {row['efficiency']:.2f}"
        )
    print(f"outputs bitwise consistent: {report.consistent}")
    return 0 if report.consistent else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    """Comma-separated integers; argparse turns a ValueError into exit 2."""
    return [int(x) for x in text.split(",")]


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file; fields override defaults")
    sp.add_argument("--seed", type=int, help="global seed (overrides config)")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--toy", action="store_true",
                    help="fast profile: C=20, ID=100nm, 1 px/nm, factor 4")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pixelret",
        description="Pixel-based machine-learning lithography correction flow",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-patterns", help="write canonical or custom test patterns")
    _add_common(sp)
    sp.add_argument("--topology", choices=["isolated_line", "line_space", "square"])
    sp.add_argument("--width", type=int)
    sp.add_argument("--pitch", type=int)
    sp.add_argument("--count", type=int)
    sp.add_argument("--length", type=int)
    sp.add_argument("--name", help="file stem for a custom pattern")
    sp.set_defaults(func=cmd_gen_patterns)

    sp = sub.add_parser("rasterize", help="rasterize a layout to a graymap")
    _add_common(sp)
    sp.add_argument("--layout", required=True)
    sp.add_argument("--margin", type=float, help="region margin in nm (default: interaction distance)")
    sp.set_defaults(func=cmd_rasterize)

    sp = sub.add_parser("simulate", help="aerial image and printed shape of a layout")
    _add_common(sp)
    sp.add_argument("--layout", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("ilt", help="compute the reference mask for a target layout")
    _add_common(sp)
    sp.add_argument("--layout", required=True)
    sp.set_defaults(func=cmd_ilt)

    sp = sub.add_parser("prep-data", help="build a training dataset from target layouts")
    _add_common(sp)
    sp.add_argument("--layouts", nargs="+", required=True)
    sp.set_defaults(func=cmd_prep_data)

    sp = sub.add_parser("train", help="train the classifier on a dataset directory")
    _add_common(sp)
    sp.add_argument("--data", required=True)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict-map", help="predict the IIP map for a layout")
    _add_common(sp)
    sp.add_argument("--layout", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--workers", type=int)
    sp.set_defaults(func=cmd_predict_map)

    sp = sub.add_parser("correct", help="end-to-end correction: layout in, mask out")
    _add_common(sp)
    sp.add_argument("--layout", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--workers", type=int)
    sp.set_defaults(func=cmd_correct)

    sp = sub.add_parser("evaluate", help="confusion matrix and IoU against the ILT reference")
    _add_common(sp)
    sp.add_argument("--layout", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--workers", type=int)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("bench", help="scaling benchmark over worker counts")
    _add_common(sp)
    sp.add_argument("--layout", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--workers", type=_int_list, default="1,2,4",
                    help="comma-separated counts, first must be 1")
    sp.add_argument("--repeats", type=int, default=3)
    sp.set_defaults(func=cmd_bench)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = load_config(args.config, args.toy, overrides)
        rc = args.func(args, cfg)
        _echo_config(cfg, Path(args.out), args.command)
        return rc
    except PixelretError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
