"""CLI pipeline, config validation, and file-format golden tests."""

import json
import os

import numpy as np
import pytest

import sbdeconv.cli
from sbdeconv import io as sio
from sbdeconv.cli import main
from sbdeconv.errors import ConfigError, IoError


def smoke_config(tmp_path, out_name="run", seed=123):
    # observed 12 x 3 embedded in a 16 x 4 extended lattice
    cfg = {
        "model": {
            "lattice": {"n_v_obs": 12, "n_h_obs": 3, "m_v": 4, "m_h": 1,
                        "blur_len": 6},
            "blur": {"phi": 1.5, "p": 1.5},
        },
        "sampler": {"alpha": 0.0, "iterations": 60, "burn_in": 20,
                    "seed": seed, "image_trace": 3},
        "simulate": {"n_v_obs": 12, "n_h_obs": 3, "blur_len": 6,
                     "embed_factor": 4},
        "io": {"out_dir": str(tmp_path / out_name)},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestPipeline:
    def test_simulate_sample_diagnose_round_trip(self, tmp_path):
        cfg_path, cfg = smoke_config(tmp_path, "sim")
        assert main(["--config", str(cfg_path), "simulate"]) == 0
        sim_dir = tmp_path / "sim"
        for name in ("data.csv", "image_obs.csv", "true_image.csv",
                     "true_blur.csv", "manifest.json"):
            assert (sim_dir / name).exists()

        cfg["io"]["data"] = str(sim_dir / "data.csv")
        cfg["io"]["image_obs"] = str(sim_dir / "image_obs.csv")
        cfg["io"]["out_dir"] = str(tmp_path / "run")
        cfg_path2 = tmp_path / "config2.json"
        cfg_path2.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path2), "sample"]) == 0
        run_dir = tmp_path / "run"
        for name in ("trace_omega.csv", "trace_variances.csv",
                     "trace_image.csv", "trace_aux_data.csv", "manifest.json"):
            assert (run_dir / name).exists()

        assert main(["--config", str(cfg_path2), "--out",
                     str(tmp_path / "diag"), "diagnose",
                     str(run_dir / "trace_omega.csv"),
                     str(run_dir / "trace_variances.csv")]) == 0
        report = (tmp_path / "diag" / "diagnostics.csv").read_text()
        assert report.startswith("trace,column,ess,msjd,rmse")
        assert "omega_0" in report and "sigma_c2" in report

    def test_identical_seed_byte_identical_traces(self, tmp_path):
        cfg_path, cfg = smoke_config(tmp_path, "sim")
        main(["--config", str(cfg_path), "simulate"])
        sim_dir = tmp_path / "sim"
        cfg["io"]["data"] = str(sim_dir / "data.csv")
        cfg["io"]["image_obs"] = str(sim_dir / "image_obs.csv")

        blobs = []
        for run in ("run_a", "run_b"):
            cfg["io"]["out_dir"] = str(tmp_path / run)
            p = tmp_path / f"{run}.json"
            p.write_text(json.dumps(cfg))
            assert main(["--config", str(p), "sample"]) == 0
            blobs.append((tmp_path / run / "trace_omega.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_changes_output(self, tmp_path):
        cfg_path, cfg = smoke_config(tmp_path, "sim")
        main(["--config", str(cfg_path), "simulate"])
        sim_dir = tmp_path / "sim"
        cfg["io"]["data"] = str(sim_dir / "data.csv")
        cfg["io"]["image_obs"] = str(sim_dir / "image_obs.csv")
        blobs = []
        for run, seed in (("a", "1"), ("b", "2")):
            cfg["io"]["out_dir"] = str(tmp_path / run)
            p = tmp_path / f"{run}.json"
            p.write_text(json.dumps(cfg))
            assert main(["--config", str(p), "--seed", seed, "sample"]) == 0
            blobs.append((tmp_path / run / "trace_omega.csv").read_bytes())
        assert blobs[0] != blobs[1]

    def test_hmc_on_scattered_mask_writes_traces(self, tmp_path):
        cfg_path, cfg = smoke_config(tmp_path, "run")
        data = tmp_path / "data.csv"
        sio.write_matrix_csv(data, np.random.default_rng(0).standard_normal((12, 3)))
        image_obs = tmp_path / "image_obs.csv"
        sio.write_pixel_obs_csv(image_obs, [0, 3], [0, 1], [0.1, -0.1])
        cfg["io"].update(data=str(data), image_obs=str(image_obs))
        cfg["sampler"]["alpha"] = 1.0
        cfg_path.write_text(json.dumps(cfg))
        assert main(["--config", str(cfg_path), "sample"]) == 0
        names, hmc = sio.read_trace_csv(tmp_path / "run" / "trace_hmc.csv")
        assert names == ["delta_h", "accept", "eps"]
        assert hmc.shape[0] == cfg["sampler"]["iterations"]

    def test_experiment_smoke(self, tmp_path):
        cfg = {
            "experiment": {"m_values": [0, 2], "iterations": 150,
                           "burn_in": 50},
            "io": {"out_dir": str(tmp_path / "exp")},
        }
        p = tmp_path / "exp.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "experiment", "constraint-sweep"]) == 0
        table = (tmp_path / "exp" / "constraint-sweep.csv").read_text()
        assert table.splitlines()[0].startswith("m,alpha,")
        assert len(table.splitlines()) == 5


class TestConfigValidation:
    def test_unknown_key_named_and_exit_2(self, tmp_path, capsys):
        cfg = {"model": {"lattice": {"n_v_obs": 12, "typo_key": 1}}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "simulate"]) == 2
        err = capsys.readouterr().err
        assert "typo_key" in err

    def test_unknown_top_level_key(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"samplr": {}}))
        with pytest.raises(ConfigError):
            sio.load_config(p)

    def test_invalid_json_is_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["--config", str(p), "simulate"]) == 2

    @pytest.mark.parametrize("bad", [{"alpha": 1.0, "hmc_steps": 0},
                                     {"alpha": 1.0, "hmc_step_size": -1.0},
                                     {"alpha": 2.0}])
    def test_bad_sampler_block_exit_2_before_model(self, tmp_path, capsys,
                                                   monkeypatch, bad):
        cfg_path, cfg = smoke_config(tmp_path, "run")
        data = tmp_path / "data.csv"
        sio.write_matrix_csv(data, np.random.default_rng(0).standard_normal((12, 3)))
        cfg["io"]["data"] = str(data)
        cfg["sampler"].update(bad)
        cfg_path.write_text(json.dumps(cfg))

        def no_model(*args):
            raise AssertionError("the model was built")

        monkeypatch.setattr(sbdeconv.cli, "_build_model_from_config", no_model)
        assert main(["--config", str(cfg_path), "sample"]) == 2
        assert "bad sampler block" in capsys.readouterr().err

    def test_missing_data_file_exit_3(self, tmp_path):
        cfg = {
            "model": {"lattice": {"n_v_obs": 4, "n_h_obs": 2, "blur_len": 2}},
            "io": {"data": str(tmp_path / "nope.csv"),
                   "out_dir": str(tmp_path / "o")},
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert main(["--config", str(p), "sample"]) == 3


class TestFormats:
    def test_matrix_csv_round_trip(self, tmp_path):
        mat = np.random.default_rng(0).standard_normal((5, 3))
        path = tmp_path / "m.csv"
        sio.write_matrix_csv(path, mat)
        np.testing.assert_array_equal(sio.read_matrix_csv(path), mat)

    def test_matrix_csv_golden(self, tmp_path):
        path = tmp_path / "g.csv"
        sio.write_matrix_csv(path, np.array([[1.0, 2.5], [-3.0, 0.125]]))
        assert path.read_text() == "# 2 2\n1,2.5\n-3,0.125\n"

    def test_matrix_binary_golden(self, tmp_path):
        path = tmp_path / "g.bin"
        sio.write_matrix_binary(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        blob = path.read_bytes()
        assert blob[:4] == b"SBD1"
        assert int.from_bytes(blob[4:12], "little") == 2
        assert int.from_bytes(blob[12:20], "little") == 2
        # column-major payload: 1, 3, 2, 4
        np.testing.assert_array_equal(np.frombuffer(blob[20:], dtype="<f8"),
                                      [1.0, 3.0, 2.0, 4.0])

    def test_matrix_binary_round_trip(self, tmp_path):
        mat = np.random.default_rng(1).standard_normal((4, 7))
        path = tmp_path / "m.bin"
        sio.write_matrix_binary(path, mat)
        np.testing.assert_array_equal(sio.read_matrix_binary(path), mat)

    def test_trace_round_trip(self, tmp_path):
        arr = np.random.default_rng(2).standard_normal((10, 3))
        path = tmp_path / "t.csv"
        sio.write_trace_csv(path, arr, ["a", "b", "c"])
        names, data = sio.read_trace_csv(path)
        assert names == ["a", "b", "c"]
        np.testing.assert_array_equal(data, arr)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(IoError):
            sio.read_matrix_csv(p)

    def test_corrupt_binary_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(IoError):
            sio.read_matrix_binary(p)

    def test_atomic_write_no_temp_left_behind(self, tmp_path):
        sio.write_matrix_csv(tmp_path / "x.csv", np.eye(2))
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert leftovers == []
