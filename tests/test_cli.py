import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from pixelret.cli import CANONICAL_PATTERNS, load_config, main
from pixelret.layout import parse_layout

FAST_CONFIG = {
    "litho": {"sigma_nm": 3.0, "radius_nm": 9.0, "resist_threshold": 0.5},
    "ilt": {"steps": 8},
    "iip": {
        "num_classes": 5,
        "iik_sigma_nm": 2.0,
        "iik_radius_nm": 6.0,
        "threshold": 0.5,
    },
    "tiling": {
        "interaction_distance": 8.0,
        "px_per_nm": 1.0,
        "compression_factor": 2,
        "row_reducer": "mean",
        "col_reducer": "mean",
    },
    "arch": {
        "conv_blocks": [
            {"filters": 4, "kernel": 3, "stride": 2},
            {"filters": 8, "kernel": 3, "stride": 2},
        ]
    },
    "train": {"epochs": 2, "batch_size": 8, "learning_rate": 0.05},
    "sampling": {"per_class_cap": 40, "split_fractions": [0.6, 0.2, 0.2]},
    "correction": {"workers": 1, "cleanup_min_area": 2.0, "cleanup_min_edge": 0.0},
}

COMMANDS = [
    "gen-patterns", "rasterize", "simulate", "ilt", "prep-data",
    "train", "predict-map", "correct", "evaluate", "bench",
]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "fast.json"
    cfg.write_text(json.dumps(FAST_CONFIG))
    rc = main([
        "gen-patterns", "--config", str(cfg), "--out", str(root / "pat"),
        "--topology", "isolated_line", "--width", "10", "--length", "30",
        "--name", "tiny",
    ])
    assert rc == 0
    return SimpleNamespace(root=root, cfg=str(cfg), layout=str(root / "pat" / "tiny.layout"))


@pytest.fixture(scope="module")
def model_path(ws):
    rc = main([
        "prep-data", "--config", ws.cfg, "--layouts", ws.layout,
        "--out", str(ws.root / "data"),
    ])
    assert rc == 0
    rc = main([
        "train", "--config", ws.cfg, "--data", str(ws.root / "data" / "dataset"),
        "--out", str(ws.root / "model"),
    ])
    assert rc == 0
    return str(ws.root / "model" / "model.bin")


class TestParser:
    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as e:
            main([cmd, "--help"])
        assert e.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--config", "--seed", "--out", "--toy"):
            assert flag in text

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["ilt", "--out", "x", "--layout", "y", "--frobnicate"])
        assert e.value.code == 2

    def test_bad_worker_list_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([
                "bench", "--out", "x", "--layout", "y", "--model", "z",
                "--workers", "1,a",
            ])
        assert e.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_missing_out_rejected(self):
        with pytest.raises(SystemExit) as e:
            main(["gen-patterns"])
        assert e.value.code == 2

    def test_top_level_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        for cmd in COMMANDS:
            assert cmd in text


class TestConfig:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main([
            "gen-patterns", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_layout_file(self, ws, tmp_path, capsys):
        rc = main([
            "rasterize", "--config", ws.cfg, "--layout", str(tmp_path / "nope.layout"),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "cannot read layout file" in capsys.readouterr().err

    def test_garbage_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["gen-patterns", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    @staticmethod
    def _run_with(tmp_path, cfg) -> int:
        f = tmp_path / "c.json"
        f.write_text(json.dumps(cfg))
        return main(["gen-patterns", "--config", str(f), "--out", str(tmp_path / "o")])

    def test_arch_num_classes_rejected(self, tmp_path, capsys):
        # Derived from iip.num_classes, so it is not a key.
        cfg = dict(FAST_CONFIG, arch=dict(FAST_CONFIG["arch"], num_classes=5))
        assert self._run_with(tmp_path, cfg) == 2
        assert capsys.readouterr().err == "error: unknown config key arch.num_classes\n"

    def test_arch_input_side_rejected(self, tmp_path, capsys):
        # Derived from the tiling, so it is not a key.
        cfg = dict(FAST_CONFIG, arch=dict(FAST_CONFIG["arch"], input_side=4))
        assert self._run_with(tmp_path, cfg) == 2
        assert capsys.readouterr().err == "error: unknown config key arch.input_side\n"

    @pytest.mark.parametrize("section, key", [
        ("litho", "sigma"), ("ilt", "step"), ("iip", "classes"), ("tiling", "factor"),
        ("train", "epoch"), ("sampling", "cap"), ("correction", "worker"),
        ("ilt", "init_mode"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, section, key):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg[section][key] = 4
        assert self._run_with(tmp_path, cfg) == 2
        assert capsys.readouterr().err == f"error: unknown config key {section}.{key}\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_conv_block_key_rejected(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg["arch"]["conv_blocks"][1]["filter"] = 8
        assert self._run_with(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown config key arch.conv_blocks[1].filter\n"

    @pytest.mark.parametrize("part, name", [
        ({"litho": 5}, "litho"),
        ({"arch": {"conv_blocks": {"filters": 4}}}, "arch.conv_blocks"),
        ({"arch": {"conv_blocks": [4]}}, "arch.conv_blocks[0]"),
    ])
    def test_wrong_shape_rejected(self, tmp_path, capsys, part, name):
        assert self._run_with(tmp_path, dict(FAST_CONFIG, **part)) == 2
        assert capsys.readouterr().err.startswith(f"error: config key {name} must hold")

    @pytest.mark.parametrize("section, key, value", [
        ("sampling", "per_class_cap", "x"),
        ("sampling", "per_class_cap", 0),
        ("correction", "workers", 0),
        ("iip", "num_classes", 70000),  # class ids are uint16
    ])
    def test_bad_value_rejected_at_load(self, tmp_path, capsys, section, key, value):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg[section][key] = value
        assert self._run_with(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("section, key, value, what", [
        ("train", "epochs", "x", "an integer"),
        ("train", "epochs", True, "an integer"),
        ("tiling", "compression_factor", 2.5, "an integer"),
        ("litho", "sigma_nm", "3", "a number"),
        ("tiling", "row_reducer", 1, "a string"),
        # JSON's Infinity and NaN, which json.loads accepts.
        ("tiling", "interaction_distance", float("inf"), "a finite number"),
        ("correction", "cleanup_min_area", float("nan"), "a finite number"),
    ])
    def test_wrong_type_rejected(self, tmp_path, capsys, section, key, value, what):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg[section][key] = value
        assert self._run_with(tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert err == f"error: config key {section}.{key} must hold {what}, got {value!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value, name", [
        (0.5, "sampling.split_fractions"),
        ([0.6, "x", 0.2], "sampling.split_fractions[1]"),
        ([0.6, False, 0.2], "sampling.split_fractions[1]"),
        ([float("nan"), 0.5, 0.5], "sampling.split_fractions[0]"),
    ])
    def test_split_fractions_need_numbers(self, tmp_path, capsys, value, name):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg["sampling"]["split_fractions"] = value
        assert self._run_with(tmp_path, cfg) == 2
        assert capsys.readouterr().err.startswith(f"error: config key {name} must hold")

    def test_int_accepted_for_float(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({
            "ilt": {"learning_rate": 800000}, "sampling": {"split_fractions": [1, 0, 0]},
        }))
        cfg = load_config(str(f), False, {})
        assert cfg.ilt().learning_rate == 8.0e5
        assert cfg.raw["sampling"]["split_fractions"] == [1, 0, 0]

    def test_echoed_config_loads_back(self, ws, tmp_path):
        echoed = ws.root / "pat" / "config.json"
        rc = main([
            "gen-patterns", "--config", str(echoed), "--out", str(tmp_path / "o"),
            "--topology", "square", "--width", "20",
        ])
        assert rc == 0
        assert (tmp_path / "o" / "config.json").read_bytes() == echoed.read_bytes()

    @pytest.mark.parametrize("missing", ["layout", "model", "data"])
    def test_missing_input_leaves_no_out(self, ws, tmp_path, capsys, missing):
        nope = str(tmp_path / "nope")
        if missing == "data":
            argv = ["train", "--data", nope]
        else:
            layout = nope if missing == "layout" else ws.layout
            argv = ["predict-map", "--layout", layout, "--model", nope]
        out = tmp_path / "d"
        assert main([*argv, "--config", ws.cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_config_echoed_with_command(self, ws):
        echoed = json.loads((ws.root / "pat" / "config.json").read_text())
        assert echoed["_command"] == "gen-patterns"
        assert echoed["tiling"]["interaction_distance"] == 8.0

    def test_seed_flag_overrides(self, tmp_path):
        rc = main([
            "gen-patterns", "--seed", "5", "--out", str(tmp_path / "o"),
            "--topology", "square", "--width", "20",
        ])
        assert rc == 0
        echoed = json.loads((tmp_path / "o" / "config.json").read_text())
        assert echoed["seed"] == 5


class TestGenPatterns:
    def test_canonical_set(self, tmp_path):
        rc = main(["gen-patterns", "--toy", "--out", str(tmp_path / "p")])
        assert rc == 0
        for name in CANONICAL_PATTERNS:
            assert (tmp_path / "p" / f"{name}.layout").exists()

    def test_custom_geometry(self, ws):
        p = parse_layout((ws.root / "pat" / "tiny.layout").read_text())
        assert p.bbox == (-5.0, -15.0, 5.0, 15.0)

    def test_bad_topology_params(self, tmp_path, capsys):
        rc = main([
            "gen-patterns", "--out", str(tmp_path / "o"),
            "--topology", "line_space", "--width", "40",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestStages:
    def test_rasterize(self, ws, tmp_path):
        rc = main([
            "rasterize", "--config", ws.cfg, "--layout", ws.layout,
            "--out", str(tmp_path / "r"),
        ])
        assert rc == 0
        assert (tmp_path / "r" / "raster.pgm").exists()

    def test_simulate(self, ws, tmp_path, capsys):
        rc = main([
            "simulate", "--config", ws.cfg, "--layout", ws.layout,
            "--out", str(tmp_path / "s"),
        ])
        assert rc == 0
        assert (tmp_path / "s" / "aerial.pgm").exists()
        assert (tmp_path / "s" / "printed.pgm").exists()
        assert "IoU" in capsys.readouterr().out

    def test_ilt_outputs_and_determinism(self, ws, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main([
                "ilt", "--config", ws.cfg, "--layout", ws.layout, "--out", str(out),
            ])
            assert rc == 0
        for name in ("ref_mask.pgm", "ref_mask.layout", "loss.csv"):
            assert (out1 / name).exists()
        assert (out1 / "ref_mask.pgm").read_bytes() == (out2 / "ref_mask.pgm").read_bytes()
        rows = (out1 / "loss.csv").read_text().strip().splitlines()
        assert rows[0] == "step,loss"
        assert len(rows) == 1 + FAST_CONFIG["ilt"]["steps"] + 1

    def test_prep_data_artifacts(self, ws, model_path):
        d = ws.root / "data" / "dataset"
        for f in ("meta", "images.f32", "labels.u16", "coords.i32", "splits.u8"):
            assert (d / f).exists()

    def test_train_artifacts(self, ws, model_path):
        assert (ws.root / "model" / "model.bin").exists()
        rows = (ws.root / "model" / "history.csv").read_text().strip().splitlines()
        assert rows[0] == "epoch,train_loss,val_accuracy"
        assert len(rows) == 1 + FAST_CONFIG["train"]["epochs"]

    def test_predict_map(self, ws, model_path, tmp_path):
        rc = main([
            "predict-map", "--config", ws.cfg, "--layout", ws.layout,
            "--model", model_path, "--out", str(tmp_path / "m"),
        ])
        assert rc == 0
        assert (tmp_path / "m" / "iip.pgm").exists()
        assert (tmp_path / "m" / "iip.pgm.json").exists()

    def test_correct_artifacts(self, ws, model_path, tmp_path):
        rc = main([
            "correct", "--config", ws.cfg, "--layout", ws.layout,
            "--model", model_path, "--out", str(tmp_path / "c"),
        ])
        assert rc == 0
        for name in ("iip.pgm", "threshold.pgm", "cleanup.pgm", "mask.layout"):
            assert (tmp_path / "c" / name).exists()
        parse_layout((tmp_path / "c" / "mask.layout").read_text())

    def test_correct_reproducible(self, ws, model_path, tmp_path):
        outs = []
        for sub in ("c1", "c2"):
            rc = main([
                "correct", "--config", ws.cfg, "--layout", ws.layout,
                "--model", model_path, "--out", str(tmp_path / sub),
            ])
            assert rc == 0
            outs.append((tmp_path / sub / "mask.layout").read_bytes())
        assert outs[0] == outs[1]

    def test_evaluate_metrics(self, ws, model_path, tmp_path):
        rc = main([
            "evaluate", "--config", ws.cfg, "--layout", ws.layout,
            "--model", model_path, "--out", str(tmp_path / "e"),
        ])
        assert rc == 0
        metrics = json.loads((tmp_path / "e" / "metrics.json").read_text())
        for key in (
            "iou_vs_reference", "class_accuracy", "within_one_class_accuracy",
            "pixels", "ilt_fidelity",
        ):
            assert key in metrics
        assert 0.0 <= metrics["iou_vs_reference"] <= 1.0
        assert metrics["pixels"] > 0
        assert (tmp_path / "e" / "confusion.csv").exists()

    def test_bench_rejects_small_workload(self, ws, model_path, tmp_path, capsys):
        rc = main([
            "bench", "--config", ws.cfg, "--layout", ws.layout,
            "--model", model_path, "--out", str(tmp_path / "b"),
            "--workers", "1", "--repeats", "1",
        ])
        assert rc == 2
        assert "10000" in capsys.readouterr().err


class TestModelCompat:
    def test_mismatched_tiling_rejected(self, ws, model_path, tmp_path, capsys):
        cfg = dict(FAST_CONFIG)
        cfg["tiling"] = dict(FAST_CONFIG["tiling"], col_reducer="max")
        f = tmp_path / "other.json"
        f.write_text(json.dumps(cfg))
        rc = main([
            "predict-map", "--config", str(f), "--layout", ws.layout,
            "--model", model_path, "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "model/config mismatch" in err
        assert "col_reducer" in err

    def test_mismatched_class_count_rejected(self, ws, model_path, tmp_path, capsys):
        cfg = json.loads(json.dumps(FAST_CONFIG))
        cfg["iip"]["num_classes"] = 4
        f = tmp_path / "other.json"
        f.write_text(json.dumps(cfg))
        rc = main([
            "evaluate", "--config", str(f), "--layout", ws.layout,
            "--model", model_path, "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "num_classes" in capsys.readouterr().err

    def test_missing_model_file(self, ws, tmp_path, capsys):
        rc = main([
            "predict-map", "--config", ws.cfg, "--layout", ws.layout,
            "--model", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "cannot read model file" in capsys.readouterr().err

    def test_malformed_model_arch(self, ws, model_path, tmp_path, capsys):
        head, payload = Path(model_path).read_bytes().split(b"\n", 1)
        header = json.loads(head)
        del header["arch"]["input_side"]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        rc = main([
            "correct", "--config", ws.cfg, "--layout", ws.layout,
            "--model", str(bad), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "malformed arch" in capsys.readouterr().err
