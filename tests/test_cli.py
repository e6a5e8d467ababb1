"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import uwloc
from uwloc import localize
from test_harness import TINY_NET, tiny_config_dict
from uwloc.cli import main
from uwloc.harness import parse_curve_csv, write_positions
from uwloc.signal import load_observations, save_observations


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config_dict()))
    return str(path)


@pytest.fixture
def net_config_path(tmp_path):
    data = tiny_config_dict(
        net={
            "train_size": 64,
            "train_snr_db": 15.0,
            "hidden": [16],
            "epochs": 3,
            "batch_size": 32,
            "learning_rate": 3e-3,
        }
    )
    path = tmp_path / "net-config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestExitCodes:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("uwloc ")

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code = main(["experiment", "--config", str(tmp_path / "nope.json")])
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_bad_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["experiment", "--config", str(path)]) == 2

    def test_workers_only_on_experiment_and_positive(self, config_path, tmp_path,
                                                      capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--config", config_path, "--workers", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        code = main(["experiment", "--config", config_path, "--workers", "0",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["localize", "--data", "data", "--out", "loc"],
        ["bound", "--errors-q", "eq.csv", "--errors-p", "ep.csv"],
    ])
    def test_seed_only_where_it_is_read(self, config_path, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([*command, "--config", config_path, "--seed", "3"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_estimation_failure_is_numeric_error(self, tmp_path, capsys):
        p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
        np.savetxt(p_path, np.ones((3, 1)) * np.arange(3)[:, None], delimiter=",")
        np.savetxt(q_path, np.ones((8, 1)) * np.arange(8)[:, None], delimiter=",")
        code = main(
            ["estimate-csd", "--samples-p", str(p_path), "--samples-q", str(q_path),
             "--k", "5"]
        )
        assert code == 3


class TestExperimentCommand:
    @pytest.mark.parametrize("command", ["experiment", "train"])
    def test_attenuation_outside_the_dump_range_exits_2(self, tmp_path, capsys,
                                                        command):
        # 14 dB/m leaves an average attenuation of 3e-135, below the range
        # every dump writer accepts and the scorer's weights stay finite in
        data = tiny_config_dict(net=TINY_NET)
        for env in ("environment_q", "environment_p"):
            data[env] = dict(data[env], absorption_db_per_m=14.0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "environment_q needs a finite, positive attenuation" in err
        assert re.search(r"got 3\.02\d*e-135\n", err)
        assert not out.exists()

    def test_writes_deterministic_curve(self, config_path, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["experiment", "--config", config_path, "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", config_path, "--out", str(out_b),
                     "--workers", "2"]) == 0
        text_a = (out_a / "curve.csv").read_bytes()
        assert text_a == (out_b / "curve.csv").read_bytes()
        points = parse_curve_csv(out_a / "curve.csv")
        assert [p.snr_db for p in points] == [0.0, 20.0]
        assert (out_a / "report.txt").exists() and (out_a / "curve.dat").exists()

    def test_seed_override_changes_output(self, config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["experiment", "--config", config_path, "--out", str(out_a)])
        main(["experiment", "--config", config_path, "--out", str(out_b),
              "--seed", "123"])
        points_a = parse_curve_csv(out_a / "curve.csv")
        points_b = parse_curve_csv(out_b / "curve.csv")
        assert points_a[0].seed == 99 and points_b[0].seed == 123
        assert points_a[0].rmse_q != points_b[0].rmse_q


class TestDataCommands:
    def test_simulate_writes_observations(self, config_path, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(["simulate", "--config", config_path, "--out", str(out),
                     "--count", "5", "--snr-db", "12", "--env", "p"])
        assert code == 0
        values, _ = load_observations(out / "observations.bin")
        assert values.shape == (5, 3, 8)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["environment"] == "p" and meta["count"] == 5
        assert "simulated 5 observations" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_simulate_rejects_nonpositive_count(self, config_path, tmp_path,
                                                 capsys, count):
        out = tmp_path / "sim"
        code = main(["simulate", "--config", config_path, "--out", str(out),
                     "--count", count])
        assert code == 2
        assert "count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_data_then_localize_ml(self, config_path, tmp_path, capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", config_path, "--out", str(data_dir),
                     "--count", "6", "--snr-db", "18"]) == 0
        out = tmp_path / "loc"
        assert main(["localize", "--config", config_path, "--data", str(data_dir),
                     "--out", str(out), "--method", "ml"]) == 0
        estimates = np.loadtxt(out / "estimates.csv", delimiter=",", skiprows=1)
        assert estimates.shape == (6, 3)
        # labels.csv is present, so the command reports the achieved rmse
        assert "rmse" in capsys.readouterr().out

    def test_localize_rejects_non_finite_observations(self, config_path, tmp_path,
                                                       capsys):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", config_path, "--out", str(data_dir),
                     "--count", "3", "--snr-db", "18"]) == 0
        values, _ = load_observations(data_dir / "observations.bin")
        values[1, 0, 0] = np.nan
        save_observations(data_dir / "observations.bin", values, seed=0)
        out = tmp_path / "loc"
        code = main(["localize", "--config", config_path, "--data", str(data_dir),
                     "--out", str(out), "--method", "ml"])
        assert code == 2
        assert "not finite in observation 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "header, drop",
        [
            (b"UWOBS1 L=2\n", None),
            (b"\xff\xfe\n", None),
            (b"UWOBS1 L=3 N=x count=3 seed=99\n", None),
            (None, "noise_power"),
            (None, "attenuation"),
        ],
    )
    def test_localize_rejects_malformed_dataset(self, config_path, tmp_path, capsys,
                                                header, drop):
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", config_path, "--out", str(data_dir),
                     "--count", "3", "--snr-db", "18"]) == 0
        if header is not None:
            raw = (data_dir / "observations.bin").read_bytes()
            (data_dir / "observations.bin").write_bytes(
                header + raw[raw.index(b"\n") + 1 :]
            )
        if drop is not None:
            meta = json.loads((data_dir / "meta.json").read_text())
            del meta[drop]
            (data_dir / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        for method in ("ml", "net"):
            out = tmp_path / f"loc-{method}"
            code = main(["localize", "--config", config_path, "--data", str(data_dir),
                         "--out", str(out), "--method", method, "--model", "absent"])
            assert code == 2
            assert "error:" in capsys.readouterr().err
            assert not out.exists()
        if header is None:
            code = main(["train", "--config", config_path, "--data", str(data_dir),
                         "--out", str(tmp_path / "model")])
            assert code == 2 and not (tmp_path / "model").exists()

    @pytest.mark.parametrize("key", ["noise_power", "attenuation"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 1e-310, 1e278])
    def test_dataset_levels_must_be_finite_and_positive(self, net_config_path, tmp_path,
                                                        capsys, key, value):
        # A zero or negative noise power raised an uncaught ValueError, and a
        # NaN or infinite one localized from garbage scores with exit 0. An
        # attenuation of 1e-310 was reported as "snr 300.0 dB gives no finite,
        # positive noise power", naming an SNR the dump never gave.
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", net_config_path, "--out", str(data_dir),
                     "--count", "4", "--snr-db", "18"]) == 0
        meta = json.loads((data_dir / "meta.json").read_text())
        meta[key] = value
        (data_dir / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        for command in (["localize", "--method", "ml"], ["train"]):
            out = tmp_path / command[0]
            code = main([*command, "--config", net_config_path, "--data", str(data_dir),
                         "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "finite, positive" in err and "snr" not in err
            if key == "attenuation":
                assert f"attenuation from 1e-124 to 1e+124, got {value!r}" in err
            assert not out.exists()

    def test_train_and_localize_net(self, net_config_path, tmp_path, capsys):
        data_dir = tmp_path / "data"
        main(["gen-data", "--config", net_config_path, "--out", str(data_dir),
              "--count", "64", "--snr-db", "15"])
        model_dir = tmp_path / "model"
        assert main(["train", "--config", net_config_path, "--data", str(data_dir),
                     "--out", str(model_dir)]) == 0
        assert (model_dir / "model.uwnet").exists()
        loss_rows = (model_dir / "loss.csv").read_text().splitlines()
        assert loss_rows[0] == "epoch,loss" and len(loss_rows) == 4

        out = tmp_path / "loc"
        code = main(["localize", "--config", net_config_path, "--data", str(data_dir),
                     "--out", str(out), "--method", "net",
                     "--model", str(model_dir / "model.uwnet")])
        assert code == 0
        estimates = np.loadtxt(out / "estimates.csv", delimiter=",", skiprows=1)
        assert estimates.shape == (64, 3)

    def test_localize_net_writes_the_whole_batch_bytes(self, tmp_path, monkeypatch):
        # A dump of four row blocks, the last one a single row past a
        # multiple of the block, against the whole-batch chain; 64 bins
        # give 768 features into 256 units, where BLAS rounds a one-row
        # product unlike a row of a larger one.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config_dict(n_bins=64, net=dict(
            train_size=64, hidden=[256, 256], epochs=2, batch_size=32))))
        net_config_path = str(config_path)
        count = 3 * localize._NET_ROWS + 1
        data_dir, model_dir = tmp_path / "data", tmp_path / "model"
        assert main(["gen-data", "--config", net_config_path, "--out", str(data_dir),
                     "--count", str(count), "--snr-db", "15"]) == 0
        assert main(["train", "--config", net_config_path, "--out", str(model_dir)]) == 0
        command = ["localize", "--config", net_config_path, "--data", str(data_dir),
                   "--method", "net", "--model", str(model_dir / "model.uwnet")]
        assert main(command + ["--out", str(tmp_path / "blocks")]) == 0
        monkeypatch.setattr(localize.NetModel, "locate", lambda model, obs, attenuation:
                            model.predict(localize.extract_features(obs, attenuation)))
        assert main(command + ["--out", str(tmp_path / "whole")]) == 0
        blocks = (tmp_path / "blocks" / "estimates.csv").read_bytes()
        assert blocks.count(b"\n") == count + 1
        assert blocks == (tmp_path / "whole" / "estimates.csv").read_bytes()

    @staticmethod
    def malformed_labels(config_path, data_dir, labels):
        """A 20-observation dataset whose labels.csv is 5 rows short, 2 wide,
        or ends in a non-numeric row."""
        assert main(["gen-data", "--config", config_path, "--out", str(data_dir),
                     "--count", "20", "--snr-db", "15"]) == 0
        if labels == "non_numeric":
            with open(data_dir / "labels.csv", "a", encoding="utf-8") as handle:
                handle.write("a,b,c\n")
            return
        rows = np.loadtxt(data_dir / "labels.csv", delimiter=",", skiprows=1)
        rows = rows[:-5] if labels == "short" else rows[:, :2]
        np.savetxt(data_dir / "labels.csv", rows, delimiter=",", header="x,y,z",
                   comments="")

    @pytest.mark.parametrize("labels", ["short", "two_columns", "non_numeric"])
    def test_train_rejects_malformed_labels(self, net_config_path, tmp_path, capsys,
                                            labels):
        data_dir = tmp_path / "data"
        self.malformed_labels(net_config_path, data_dir, labels)
        capsys.readouterr()
        out = tmp_path / "model"
        code = main(["train", "--config", net_config_path, "--data", str(data_dir),
                     "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("labels", ["short", "two_columns", "non_numeric"])
    def test_localize_rejects_malformed_labels(self, config_path, tmp_path, capsys,
                                               labels):
        data_dir = tmp_path / "data"
        self.malformed_labels(config_path, data_dir, labels)
        capsys.readouterr()
        out = tmp_path / "loc"
        code = main(["localize", "--config", config_path, "--data", str(data_dir),
                     "--out", str(out)])
        assert code == 2
        assert "labels.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_source_near_receiver_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "near.json"
        path.write_text(json.dumps(tiny_config_dict(source=[3.0, 0.0, 30.0])))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "far-field minimum" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, overrides, message",
        [
            ("experiment",
             {"grid": {"counts": [5, 5, 3], "lower": [0, 0, 30], "upper": [48, 48, 50]}},
             "grid box is 0 m from the receiver at [0.0, 0.0, 30.0]"),
            ("gen-data",
             {"geometry": {"receivers": [[0, 0, 30], [240, 0, 40], [0, 240, 55],
                                         [84, 84, 50]],
                           "volume": [[60, 60, 40], [108, 108, 60]]}},
             "volume is 0 m from the receiver at [84.0, 84.0, 50.0]"),
            ("experiment",
             {"grid": {"counts": [5, 5, 3], "lower": [60, 60, -40],
                       "upper": [108, 108, -10]}},
             "grid box depths must lie in [0, water_depth]"),
        ],
        ids=["grid_through_receiver", "receiver_in_volume", "grid_above_surface"],
    )
    def test_scene_outside_far_field_is_config_error(self, tmp_path, capsys, command,
                                                     overrides, message):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(tiny_config_dict(**overrides)))
        out = tmp_path / "out"
        count = ["--count", "2000"] if command == "gen-data" else []
        assert main([command, "--config", str(path), "--out", str(out), *count]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_localize_net_without_model_is_config_error(
        self, config_path, tmp_path
    ):
        data_dir = tmp_path / "data"
        main(["gen-data", "--config", config_path, "--out", str(data_dir),
              "--count", "4", "--snr-db", "10"])
        code = main(["localize", "--config", config_path, "--data", str(data_dir),
                     "--out", str(tmp_path / "loc"), "--method", "net"])
        assert code == 2


    @pytest.mark.parametrize("command, snr", [
        ("simulate", "nan"), ("simulate", "inf"), ("gen-data", "-inf"),
    ])
    def test_non_finite_snr_is_config_error(self, config_path, tmp_path, capsys,
                                            command, snr):
        # NaN wrote a NaN dump, inf a zero noise power and -inf divided by zero
        out = tmp_path / "out"
        code = main([command, "--config", config_path, "--out", str(out),
                     f"--snr-db={snr}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'--snr-db' must be a finite number" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, snr", [
        ("simulate", "4000"), ("simulate", "-4000"), ("gen-data", "4000"),
    ])
    def test_snr_without_noise_power_is_config_error(self, config_path, tmp_path, capsys,
                                                     command, snr):
        # 10^(snr/10) overflowed (OverflowError) or underflowed to zero
        # (ZeroDivisionError), and either escaped with a traceback
        out = tmp_path / "out"
        code = main([command, "--config", config_path, "--out", str(out),
                     f"--snr-db={snr}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no finite, positive noise power" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"snr_db": [0.0, 4000.0]},
        {"snr_db": [-4000.0]},
        {"estimator": "net", "net": {"train_size": 32, "hidden": [4], "epochs": 1,
                                     "train_snr_db": 4000.0}},
    ])
    def test_experiment_snr_without_noise_power_exits_2(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tiny_config_dict(**bad)))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "no finite, positive noise power" in err
        assert not out.exists()

    @pytest.mark.parametrize("snr", [3000.0, -3000.0, 300.5])
    def test_experiment_snr_outside_the_scorer_range_exits_2(self, tmp_path, capsys,
                                                             snr):
        # 3000 dB has a finite noise power, but the ML scorer's weights
        # overflowed and the run exited 3 from snr[0]:assemble
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(tiny_config_dict(snr_db=[snr])))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"snr_db entry {snr!r} lies outside" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, snr", [
        ("simulate", "3000"), ("simulate", "-3000"), ("gen-data", "3000"),
        ("gen-data", "-300.5"),
    ])
    def test_dump_snr_outside_the_scorer_range_exits_2(self, config_path, tmp_path,
                                                       capsys, command, snr):
        # gen-data --snr-db 3000 wrote a dump whose ML localize overflowed
        # the scorer's weights and exited 0 with a garbage rmse
        out = tmp_path / "out"
        code = main([command, "--config", config_path, "--out", str(out),
                     f"--snr-db={snr}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "noise power within 300 dB of" in err
        assert not out.exists()

    @pytest.mark.parametrize("edge", [300.0, -300.0])
    def test_dump_noise_beyond_the_scorer_range_exits_2(self, config_path, tmp_path,
                                                        capsys, edge):
        # A dump at the edge of the range loads; one whose noise power lies
        # further from its attenuation (hand-edited, or written before the
        # range held) localized from overflowed weights with exit 0.
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", config_path, "--out", str(data_dir),
                     "--count", "4", f"--snr-db={edge}"]) == 0
        assert main(["localize", "--config", config_path, "--data", str(data_dir),
                     "--out", str(tmp_path / "edge"), "--method", "ml"]) == 0
        meta = json.loads((data_dir / "meta.json").read_text())
        meta["noise_power"] *= 10.0 ** (-math.copysign(0.05, edge))
        (data_dir / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        for command in (["localize", "--method", "ml"], ["train"]):
            out = tmp_path / command[0]
            code = main([*command, "--config", config_path, "--data", str(data_dir),
                         "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "noise power within 300 dB of" in err
            assert not out.exists()

    def test_experiment_runs_at_the_top_of_the_range(self, tmp_path):
        # The suite turns every RuntimeWarning into an error. (At -300 dB
        # every trial picks one node, so the run exits 3 as degenerate.)
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(tiny_config_dict(snr_db=[300.0])))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        (point,) = parse_curve_csv(out / "curve.csv")
        assert point.snr_db == 300.0 and math.isfinite(point.rmse_q)

    def test_localize_rejects_dump_of_other_shape(self, tmp_path, capsys, monkeypatch):
        # a 16-bin dump against the 8-bin config reached GridEvaluator.locate
        # and NetModel.predict, whose ValueError escaped with a traceback
        paths = {}
        for n_bins in (8, 16):
            data = tiny_config_dict(n_bins=n_bins, net=dict(
                train_size=32, hidden=[4], epochs=1, batch_size=32))
            paths[n_bins] = tmp_path / f"config{n_bins}.json"
            paths[n_bins].write_text(json.dumps(data))
        data_dir, model_dir = tmp_path / "data16", tmp_path / "model8"
        assert main(["gen-data", "--config", str(paths[16]), "--out", str(data_dir),
                     "--count", "3"]) == 0
        assert main(["train", "--config", str(paths[8]), "--out", str(model_dir)]) == 0
        capsys.readouterr()

        def no_features(*args):
            raise AssertionError("features formed before the width check")

        monkeypatch.setattr(localize, "extract_features", no_features)
        for method, message in (("ml", "holds 3 receivers x 16 bins, the config 3 x 8"),
                                ("net", "gives 192 features per observation")):
            out = tmp_path / f"loc-{method}"
            code = main(["localize", "--config", str(paths[8]), "--data", str(data_dir),
                         "--out", str(out), "--method", method,
                         "--model", str(model_dir / "model.uwnet")])
            assert code == 2
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("section, bad", [
        ("environment_q", {"extra": 1}),
        ("environment_p", {"ray_budget": 6.7}),
        ("environment_q", {"ray_budget": True}),
        ("environment_p", {"absorption_db_per_m": math.nan}),
        ("environment_q", {"ssp": [[0.0, 1500.0], [100.0, math.nan]]}),
        ("environment_q", {"water_depth": "100"}),
        ("environment_p", {"bottom_reflection": "0.5"}),
        ("environment_p", {"bottom_reflection": [math.nan, 0.0]}),
        (None, {"extra": 1}),
        ("geometry", {"extra": 1}),
        ("grid", {"extra": 1}),
        ("net", {"extra": 1}),
    ])
    def test_bad_config_value_exits_before_writing(self, tmp_path, capsys, section, bad):
        data = tiny_config_dict(net={})
        (data if section is None else data[section]).update(bad)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["experiment", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestAnalysisCommands:
    def test_bound_reports_json(self, config_path, tmp_path, capsys):
        rng = np.random.default_rng(1)
        q_path, p_path = tmp_path / "eq.csv", tmp_path / "ep.csv"
        np.savetxt(q_path, rng.standard_normal((200, 3)), delimiter=",")
        np.savetxt(p_path, rng.standard_normal((200, 3)) + 0.2, delimiter=",")
        out = tmp_path / "bound"
        code = main(["bound", "--config", config_path,
                     "--errors-q", str(q_path), "--errors-p", str(p_path),
                     "--delta2", "0.1", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "bound.json").read_text())
        assert payload["k"] == 3  # csd_k from the config
        assert payload["strong_bound_mse"] >= payload["mse_q"]
        assert payload["weak_bound_mse"] == pytest.approx(
            payload["mse_q"] + math.sqrt(payload["var_q"] * 0.1)
        )
        printed = json.loads(capsys.readouterr().out)
        assert printed == payload

    def test_bound_rejects_negative_or_nan_delta2(self, config_path, tmp_path,
                                                   capsys):
        rng = np.random.default_rng(3)
        q_path, p_path = tmp_path / "eq.csv", tmp_path / "ep.csv"
        np.savetxt(q_path, rng.standard_normal((50, 3)), delimiter=",")
        np.savetxt(p_path, rng.standard_normal((50, 3)), delimiter=",")
        files = ["--config", config_path, "--errors-q", str(q_path),
                 "--errors-p", str(p_path)]
        for bad in ("-0.5", "nan"):
            out = tmp_path / f"bound{bad}"
            code = main(["bound", *files, "--delta2", bad, "--out", str(out)])
            assert code == 2
            assert "--delta2" in capsys.readouterr().err
            assert not out.exists()
        # an infinite divergence is a valid input: the bound is vacuous
        out = tmp_path / "bound-inf"
        assert main(["bound", *files, "--delta2", "inf", "--out", str(out)]) == 0
        payload = json.loads((out / "bound.json").read_text())
        assert payload["weak_bound_mse"] == math.inf
        assert payload["excluded_points"] == 0

    def test_estimate_csd_reports_json(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
        np.savetxt(p_path, rng.standard_normal(400), delimiter=",")
        np.savetxt(q_path, rng.standard_normal(500), delimiter=",")
        out = tmp_path / "csd"
        code = main(["estimate-csd", "--samples-p", str(p_path),
                     "--samples-q", str(q_path), "--k", "4", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "csd.json").read_text())
        assert payload["n"] == 400 and payload["m"] == 500 and payload["k"] == 4
        assert payload["clamped"] >= 0.0

    @pytest.mark.parametrize("command", ["bound", "estimate-csd"])
    def test_k_below_two_is_a_config_error(self, config_path, tmp_path, capsys,
                                           command):
        # k is a parameter, not a sample count: --k 1 is a config problem, as
        # csd_k 1 in a config is
        rng = np.random.default_rng(5)
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        np.savetxt(a_path, rng.standard_normal((50, 3)), delimiter=",")
        np.savetxt(b_path, rng.standard_normal((50, 3)), delimiter=",")
        files = (["--config", config_path, "--errors-q", str(a_path),
                  "--errors-p", str(b_path)] if command == "bound"
                 else ["--samples-p", str(a_path), "--samples-q", str(b_path)])
        out = tmp_path / "out"
        assert main([command, *files, "--k", "1", "--out", str(out)]) == 2
        assert "k must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_sample_files_exit_2(self, config_path, tmp_path, capsys):
        # an x,y,z header, as write_positions writes one, made np.loadtxt's
        # ValueError escape main with a traceback
        rng = np.random.default_rng(4)
        numeric, headed = tmp_path / "numeric.csv", tmp_path / "headed.csv"
        np.savetxt(numeric, rng.standard_normal((50, 3)), delimiter=",")
        write_positions(headed, rng.standard_normal((50, 3)))
        for command in (
            ["bound", "--config", config_path, "--errors-q", str(numeric),
             "--errors-p", str(headed)],
            ["estimate-csd", "--samples-p", str(headed), "--samples-q", str(numeric)],
        ):
            out = tmp_path / command[0]
            assert main([*command, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{headed} is not a numeric" in err
            assert not out.exists()

    @pytest.mark.parametrize("content", ["", "\n\n"])
    def test_empty_sample_file_exits_2(self, config_path, tmp_path, capsys, content):
        # np.loadtxt warned "input contained no data" and the empty array
        # then exited 3, the numerical-failure code
        rng = np.random.default_rng(5)
        numeric, empty = tmp_path / "numeric.csv", tmp_path / "empty.csv"
        np.savetxt(numeric, rng.standard_normal((50, 3)), delimiter=",")
        empty.write_text(content)
        for command in (
            ["bound", "--config", config_path, "--errors-q", str(numeric),
             "--errors-p", str(empty)],
            ["estimate-csd", "--samples-p", str(empty), "--samples-q", str(numeric)],
        ):
            out = tmp_path / command[0]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([*command, "--out", str(out)]) == 2
            assert not caught
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{empty} holds no samples" in err
            assert not out.exists()


# The scipy modules that only the k-NN estimate (scipy.spatial) and the dense
# test oracle (scipy.linalg) need; loading them costs about 0.2 s and 37 MB.
SCIPY_MODULES = ("scipy.spatial", "scipy.linalg")
SCIPY_LOADED = f"[name for name in {SCIPY_MODULES!r} if name in sys.modules]"


def run_fresh(script: str, cwd):
    """Run script in a new interpreter that imports uwloc from this checkout;
    the JSON of the last line it prints."""
    source = str(Path(uwloc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_loaded_after(steps, cwd):
    """For each step (Python source) run in turn in one new interpreter, the
    SCIPY_MODULES loaded once it has run."""
    script = "import json, sys\nseen = []\n" + "".join(
        f"{step}\nseen.append({SCIPY_LOADED})\n" for step in steps
    )
    return run_fresh(script + "print(json.dumps(seen))", cwd)


def command_step(argv) -> str:
    return f"from uwloc.cli import main\nassert main({[str(a) for a in argv]!r}) == 0"


class TestScipyLoadsOnFirstUse:
    def test_import_loads_no_scipy_module(self, tmp_path):
        assert scipy_loaded_after(["import uwloc", "import uwloc.cli"], tmp_path) == [[], []]

    def test_data_commands_load_no_scipy_module(self, net_config_path, tmp_path):
        data, model = tmp_path / "data", tmp_path / "model"
        commands = [
            ["simulate", "--config", net_config_path, "--out", tmp_path / "sim"],
            ["gen-data", "--config", net_config_path, "--out", data,
             "--count", "64", "--snr-db", "15"],
            ["train", "--config", net_config_path, "--data", data, "--out", model],
            ["train", "--config", net_config_path, "--out", tmp_path / "drawn"],
            ["localize", "--config", net_config_path, "--data", data,
             "--out", tmp_path / "ml", "--method", "ml"],
            ["localize", "--config", net_config_path, "--data", data,
             "--out", tmp_path / "net", "--method", "net", "--model", model / "model.uwnet"],
        ]
        seen = scipy_loaded_after([command_step(c) for c in commands], tmp_path)
        assert seen == [[]] * len(commands)

    @staticmethod
    def analysis_argv(command, config_path, tmp_path, rows):
        # error clouds of rows samples a side in R^3: rows^2 pairs per search
        rng = np.random.default_rng(6)
        p_path, q_path = tmp_path / "p.csv", tmp_path / "q.csv"
        np.savetxt(p_path, rng.standard_normal((rows, 3)), delimiter=",")
        np.savetxt(q_path, rng.standard_normal((rows, 3)), delimiter=",")
        return {
            "bound": ["bound", "--config", config_path,
                      "--errors-q", q_path, "--errors-p", p_path],
            "estimate-csd": ["estimate-csd", "--samples-p", p_path, "--samples-q", q_path],
        }[command]

    @staticmethod
    def experiment_script(tmp_path, estimator, trials):
        """A fresh run of experiment that prints [whether scipy.spatial was
        loaded when train_model returned (None without training), the
        SCIPY_MODULES loaded at the end]."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config_dict(estimator=estimator, net=TINY_NET,
                                                    trials=trials)))
        look_after_training = "\n".join([
            "import uwloc.harness as harness",
            "at_training = None",
            "def train_and_look(*args, _train=harness.train_model):",
            "    global at_training",
            "    trained = _train(*args)",
            "    at_training = 'scipy.spatial' in sys.modules",
            "    return trained",
            "harness.train_model = train_and_look",
        ])
        experiment = command_step(["experiment", "--config", path, "--out", tmp_path / "out"])
        return "\n".join([
            "import json, sys", look_after_training, experiment,
            f"print(json.dumps([at_training, {SCIPY_LOADED}]))",
        ])

    @pytest.mark.parametrize("command", ["bound", "estimate-csd", "ml", "net"])
    def test_small_samples_load_no_scipy_module(self, config_path, tmp_path, command):
        # 60 and 40 samples a side stay far below csd._EXACT_MAX_PAIRS, so
        # the k-NN searches are pairwise and scipy never loads.
        if command in ("ml", "net"):
            _, loaded = run_fresh(self.experiment_script(tmp_path, command, 40), tmp_path)
        else:
            argv = self.analysis_argv(command, config_path, tmp_path, 60)
            loaded, = scipy_loaded_after([command_step(argv)], tmp_path)
        assert loaded == []

    @pytest.mark.parametrize("command", ["bound", "estimate-csd"])
    def test_analysis_commands_load_the_kdtree(self, config_path, tmp_path, command):
        # 1 100 samples a side: 1.21e6 pairs, above csd._EXACT_MAX_PAIRS
        argv = self.analysis_argv(command, config_path, tmp_path, 1100)
        assert "scipy.spatial" in scipy_loaded_after([command_step(argv)], tmp_path)[0]

    @pytest.mark.parametrize("estimator", ["ml", "net"])
    def test_experiment_loads_the_kdtree_after_training(self, tmp_path, estimator):
        # 1 100 trials a point: the divergence estimate loads cKDTree, and a
        # net run only once the net is trained.
        at_training, loaded = run_fresh(self.experiment_script(tmp_path, estimator, 1100),
                                        tmp_path)
        assert at_training is (False if estimator == "net" else None)
        assert "scipy.spatial" in loaded
