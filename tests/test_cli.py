import json

from healthindex.cli import main


def run(args):
    return main([str(a) for a in args])


def simulate_panel(tmp_path, **extra):
    panel = tmp_path / "panel.csv"
    args = [
        "simulate",
        "--out",
        panel,
        "--d",
        6,
        "--n-per-class",
        12,
        "--informative-k",
        3,
        "--degradation-rate",
        0.8,
        "--label-observed-fraction",
        1.0,
        "--seed",
        3,
    ]
    for key, value in extra.items():
        args += [key, value]
    assert run(args) == 0
    return panel


class TestSimulate:
    def test_writes_csv_and_echo(self, tmp_path, capsys):
        panel = tmp_path / "p.csv"
        echo = tmp_path / "p.json"
        code = run(
            ["simulate", "--out", panel, "--echo", echo, "--d", 4, "--n-per-class", 5,
             "--informative-k", 2, "--seed", 1]
        )
        assert code == 0
        assert panel.exists()
        payload = json.loads(echo.read_text())
        assert payload["config"]["d"] == 4
        assert "wrote" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path):
        assert run(["simulate", "--out", tmp_path / "x.csv", "--visits-min", 0]) == 2


class TestTrainPredictEvaluate:
    def test_uqchi_round_trip(self, tmp_path, capsys):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "model.json"
        sidecar = tmp_path / "std.json"
        assert run(
            ["train", "--panel", panel, "--out", model, "--method", "uqchi",
             "--c", 1.5, "--standardization-out", sidecar]
        ) == 0
        payload = json.loads(model.read_text())
        assert payload["model"] == "med"
        assert payload["convergence"]["converged"] is True
        assert len(payload["standardization"]["mean"]) == 6
        assert json.loads(sidecar.read_text())["mean"] == payload["standardization"]["mean"]

        preds = tmp_path / "preds.csv"
        assert run(
            ["predict", "--model", model, "--panel", panel, "--out", preds,
             "--reject-rate", 0.4]
        ) == 0
        lines = preds.read_text().splitlines()
        assert lines[0] == "subject_id,t_last,index_mean,index_std,pred,confidence,abstained"
        assert len(lines) == 25
        rejected = sum(1 for line in lines[1:] if line.split(",")[4] == "0")
        assert rejected == int(0.4 * 24)

        capsys.readouterr()
        assert run(["evaluate", "--predictions", preds, "--truth", panel]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_abstained"] == rejected
        assert 0.0 <= report["accuracy"] <= 1.0

    def test_chi_round_trip(self, tmp_path):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "chi.json"
        assert run(
            ["train", "--panel", panel, "--out", model, "--method", "chi",
             "--steps", 150, "--step-size", 0.05]
        ) == 0
        assert json.loads(model.read_text())["model"] == "chi"
        preds = tmp_path / "chi_preds.csv"
        assert run(["predict", "--model", model, "--panel", panel, "--out", preds]) == 0
        row = preds.read_text().splitlines()[1].split(",")
        assert row[4] in ("1", "-1")
        assert row[3] == "" and row[5] == ""

    def test_chi_rejection_flag_is_invalid(self, tmp_path):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "chi.json"
        run(["train", "--panel", panel, "--out", model, "--method", "chi",
             "--steps", 50])
        code = run(
            ["predict", "--model", model, "--panel", panel,
             "--out", tmp_path / "x.csv", "--reject-rate", 0.2]
        )
        assert code == 2

    def test_unsupported_model_format_exits_2(self, tmp_path, capsys):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--panel", panel, "--out", model]) == 0
        payload = json.loads(model.read_text())
        payload["format_version"] = 99
        model.write_text(json.dumps(payload))
        preds = tmp_path / "preds.csv"
        assert run(["predict", "--model", model, "--panel", panel, "--out", preds]) == 2
        assert "unsupported model format: 99" in capsys.readouterr().err
        assert not preds.exists()

    def test_evaluate_skips_subjects_without_truth(self, tmp_path, capsys):
        partial = simulate_panel(tmp_path, **{"--label-observed-fraction": 0.5})
        model = tmp_path / "m.json"
        preds = tmp_path / "p.csv"
        run(["train", "--panel", partial, "--out", model])
        run(["predict", "--model", model, "--panel", partial, "--out", preds])
        capsys.readouterr()
        assert run(["evaluate", "--predictions", preds, "--truth", partial]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_unscored"] == 12
        assert report["n_accepted"] == 12

    def test_missing_panel_exits_2(self, tmp_path):
        assert run(
            ["train", "--panel", tmp_path / "nope.csv", "--out", tmp_path / "m.json"]
        ) == 2

    def test_numerical_failure_exits_3(self, tmp_path):
        panel = simulate_panel(tmp_path)
        code = run(
            ["train", "--panel", panel, "--out", tmp_path / "m.json",
             "--method", "chi", "--step-size", 1e160, "--steps", 50]
        )
        assert code == 3


class TestSweep:
    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        spec = {
            "sim": {
                "d": 5,
                "n_per_class": 8,
                "degradation_rate": 0.7,
                "informative_k": 2,
                "label_observed_fraction": 1.0,
                "seed": 0,
            },
            "c_policy": "fixed",
            "fixed_c": 1.5,
            "label_ratios": [0.2],
            "train_ratios": [0.6],
            "rejection_rates": [0.0, 0.4],
            "n_seeds": 2,
            "cv_folds": 2,
            "baselines": ["uqchi"],
        }
        config = tmp_path / "spec.json"
        config.write_text(json.dumps(spec))
        assert run(["sweep", "--config", config, "--out-dir", out_a]) == 0
        assert run(["sweep", "--config", config, "--out-dir", out_b]) == 0
        for name in ("results.csv", "runs.jsonl", "spec.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_flag_overrides(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["sweep", "--out-dir", out, "--n-seeds", 1, "--train-ratios", "0.6",
             "--label-ratios", "0.2", "--rejection-rates", "0.2",
             "--c-policy", "fixed", "--fixed-c", "1.5", "--baselines", "uqchi",
             "--degradation-rate", 0.7]
        )
        assert code == 0
        spec_echo = json.loads((out / "spec.json").read_text())
        assert spec_echo["n_seeds"] == 1
        assert spec_echo["sim"]["degradation_rate"] == 0.7
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0].startswith("method,label_ratio,train_ratio")
        assert len(lines) == 2

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"label_ratios": [2.0]}))
        assert run(["sweep", "--config", config, "--out-dir", tmp_path / "o"]) == 2
