import dataclasses
import json
import warnings

import numpy as np
import pytest

from oracles import panel_from_subjects

from healthindex.cli import main
from healthindex.med_core import DEFAULT_TOL
from healthindex.panel import load_panel, write_panel
from healthindex.simulator import SimConfig


def run(args):
    return main([str(a) for a in args])


def exit_code(args):
    """``run``'s exit code, or argparse's for a command line it refuses."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


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
        # the summary line reports the certificate the model file carries
        summary = capsys.readouterr().out
        grad_norm = float(summary.split("grad_norm=")[1].split(")")[0])
        assert grad_norm <= DEFAULT_TOL
        payload = json.loads(model.read_text())
        assert payload["model"] == "med"
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

    def test_chi_index_mean_carries_the_intercept(self, tmp_path):
        panel = simulate_panel(tmp_path, **{"--normal-proportion": 0.9})
        model = tmp_path / "chi.json"
        assert run(
            ["train", "--panel", panel, "--out", model, "--method", "chi",
             "--steps", 150, "--step-size", 0.05]
        ) == 0
        assert abs(json.loads(model.read_text())["b"]) > 5.0
        preds = tmp_path / "chi_preds.csv"
        assert run(["predict", "--model", model, "--panel", panel, "--out", preds]) == 0
        rows = [line.split(",") for line in preds.read_text().splitlines()[1:]]
        assert len(rows) == 24
        for row in rows:
            assert (float(row[2]) >= 0.0) == (row[4] == "1"), row

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

    def test_model_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "model.json"
        model.write_text("[1, 2]\n")
        preds = tmp_path / "preds.csv"
        assert run(["predict", "--model", model, "--panel", panel, "--out", preds]) == 2
        assert "must hold a JSON object, got list" in capsys.readouterr().err
        assert not preds.exists()

    @pytest.mark.parametrize(
        "method,entry,named",
        [
            ("uqchi", ("mean_weights", 2), "posterior mean weights must be finite"),
            ("uqchi", ("standardization", "scale", 0), "standardization mean and scale must be finite"),
            ("chi", ("standardization", "mean", 5), "standardization mean and scale must be finite"),
        ],
    )
    def test_non_finite_model_entry_exits_2(self, tmp_path, capsys, method, entry, named):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--panel", panel, "--out", model, "--method", method,
                    "--steps", 20]) == 0
        payload = json.loads(model.read_text())
        node = payload
        for key in entry[:-1]:
            node = node[key]
        node[entry[-1]] = float("nan")
        model.write_text(json.dumps(payload))
        preds = tmp_path / "preds.csv"
        assert run(["predict", "--model", model, "--panel", panel, "--out", preds]) == 2
        assert named in capsys.readouterr().err
        assert not preds.exists()

    @pytest.mark.parametrize(
        "method,edit,named",
        [
            ("uqchi", lambda p: p.update(mean_weights=[p["mean_weights"]]),
             "mean_weights: mean weights must be a vector, got shape (1, 6)"),
            ("uqchi", lambda p: p.update(d=7), "d is 7, but mean_weights holds 6 weights"),
            ("uqchi", lambda p: p.pop("mean_weights"), "field 'mean_weights' is missing"),
            ("uqchi", lambda p: p.pop("d"), "field 'd' is missing"),
            ("uqchi", lambda p: p["standardization"].pop("scale"),
             "standardization: field 'scale' is missing"),
            ("uqchi", lambda p: p.update(standardization={"mean": [0.0] * 3, "scale": [1.0] * 3}),
             "standardization holds 3 features, d is 6"),
            ("chi", lambda p: p.update(w=[p["w"]]), "weights w must be a vector, got shape (1, 6)"),
            ("chi", lambda p: p.update(d=7), "d is 7, but w holds 6 weights"),
            ("chi", lambda p: p.pop("b"), "field 'b' is missing"),
            ("chi", lambda p: p.update(b="x"), "b: could not convert string to float: 'x'"),
            # every model file train writes carries its standardization, the
            # identity under --no-standardize, and predict applies it
            ("uqchi", lambda p: p.pop("standardization"), "field 'standardization' is missing"),
            ("uqchi", lambda p: p.update(standardization={}),
             "standardization: field 'mean' is missing"),
            ("chi", lambda p: p.update(standardization=[]),
             "standardization: must be a JSON object, got list"),
            ("chi", lambda p: p.update(standardization=None),
             "standardization: must be a JSON object, got NoneType"),
        ],
    )
    def test_malformed_model_field_exits_2(self, tmp_path, capsys, method, edit, named):
        """A foreign or malformed model file is refused before the panel is
        read, naming the file and the field."""
        panel = simulate_panel(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--panel", panel, "--out", model, "--method", method,
                    "--steps", 20]) == 0
        payload = json.loads(model.read_text())
        edit(payload)
        model.write_text(json.dumps(payload))
        preds = tmp_path / "preds.csv"
        capsys.readouterr()
        assert run(["predict", "--model", model, "--panel", panel, "--out", preds]) == 2
        assert capsys.readouterr().err == f"error: model file {model}: {named}\n"
        assert not preds.exists()

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--c", "nan"], "margin prior rate c must be finite and positive, got nan"),
            (["--c", "inf"], "margin prior rate c must be finite and positive, got inf"),
            (["--tol", "1e-6"], "unrecognized arguments: --tol 1e-6"),
            (["--max-iter", 5], "unrecognized arguments: --max-iter 5"),
            (["--method", "chi", "--step-size", "nan"], "step_size must be finite and positive, got nan"),
            (["--method", "chi", "--step-size", "inf"], "step_size must be finite and positive, got inf"),
        ],
    )
    def test_bad_numeric_train_flag_exits_2(self, tmp_path, capsys, flags, named):
        """A bad value, or a solver setting, which train does not take."""
        panel = simulate_panel(tmp_path)
        model = tmp_path / "model.json"
        assert exit_code(["train", "--panel", panel, "--out", model] + flags) == 2
        assert named in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["train", "--c", "nan"], "margin prior rate c must be finite and positive, got nan"),
            (["train", "--tol", "1e-6"], "unrecognized arguments: --tol 1e-6"),
            (["train", "--max-iter", 5], "unrecognized arguments: --max-iter 5"),
            (["train", "--method", "chi", "--steps", 0], "steps must be >= 1, got 0"),
            (["train", "--method", "chi", "--step-size", "nan"],
             "step_size must be finite and positive, got nan"),
            (["train", "--method", "chi", "--alpha", -1], "alpha must be finite and non-negative"),
            (["predict", "--model", "nope.json", "--reject-rate", 1.5],
             "rate must be finite and in [0, 1), got 1.5"),
            (["predict", "--model", "nope.json", "--reject-threshold", 0.3],
             "threshold must be finite and in [0.5, 1], got 0.3"),
        ],
    )
    def test_bad_flag_is_named_before_any_file_is_read(
        self, tmp_path, monkeypatch, capsys, flags, named
    ):
        """The panel and model files do not exist; the flag is named, not them."""
        monkeypatch.chdir(tmp_path)
        assert exit_code(flags + ["--panel", "nope.csv", "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "nope" not in err

    def test_reject_threshold_abstains_below_it(self, tmp_path):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--panel", panel, "--out", model]) == 0
        preds = tmp_path / "preds.csv"
        assert run(
            ["predict", "--model", model, "--panel", panel, "--out", preds,
             "--reject-threshold", 0.6]
        ) == 0
        rows = [line.split(",") for line in preds.read_text().splitlines()[1:]]
        assert len(rows) == 24
        assert [row[6] for row in rows] == [str(int(float(row[5]) < 0.6)) for row in rows]
        assert {row[6] for row in rows} == {"0", "1"}

    def test_unknown_model_kind_exits_2(self, tmp_path, capsys):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--panel", panel, "--out", model]) == 0
        payload = json.loads(model.read_text())
        payload["model"] = "svm"
        model.write_text(json.dumps(payload))
        preds = tmp_path / "preds.csv"
        assert run(["predict", "--model", model, "--panel", panel, "--out", preds]) == 2
        assert "unknown model kind 'svm'" in capsys.readouterr().err
        assert not preds.exists()

    def test_evaluate_out_writes_the_printed_report(self, tmp_path, capsys):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "m.json"
        preds = tmp_path / "p.csv"
        run(["train", "--panel", panel, "--out", model])
        run(["predict", "--model", model, "--panel", panel, "--out", preds])
        capsys.readouterr()
        assert run(["evaluate", "--predictions", preds, "--truth", panel]) == 0
        printed = capsys.readouterr().out
        report = tmp_path / "report.json"
        assert run(["evaluate", "--predictions", preds, "--truth", panel, "--out", report]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_text() == printed

    @pytest.mark.parametrize("method", ["uqchi", "chi"])
    @pytest.mark.parametrize("standardize", [True, False])
    def test_model_dimension_mismatch_exits_2(self, tmp_path, capsys, method, standardize):
        train_panel = simulate_panel(tmp_path)
        other = tmp_path / "other.csv"
        assert run(["simulate", "--out", other, "--d", 4, "--n-per-class", 5,
                    "--informative-k", 2, "--seed", 1]) == 0
        model = tmp_path / "model.json"
        flags = [] if standardize else ["--no-standardize"]
        assert run(["train", "--panel", train_panel, "--out", model, "--method", method,
                    "--steps", 20] + flags) == 0
        capsys.readouterr()
        preds = tmp_path / "preds.csv"
        assert run(["predict", "--model", model, "--panel", other, "--out", preds]) == 2
        err = capsys.readouterr().err
        assert "has d=6" in err and "has d=4" in err
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

    def test_zero_terminal_visit_is_predicted(self, tmp_path):
        source = load_panel(simulate_panel(tmp_path, **{"--d": 3}))
        first = source.subjects[0]
        zeroed = dataclasses.replace(
            first, observations=np.vstack([first.observations[:-1], np.zeros(3)])
        )
        panel = tmp_path / "zeroed.csv"
        write_panel(panel_from_subjects((zeroed,) + source.subjects[1:]), panel)
        model = tmp_path / "m.json"
        preds = tmp_path / "p.csv"
        assert run(["train", "--panel", panel, "--out", model, "--no-standardize"]) == 0
        assert run(
            ["predict", "--model", model, "--panel", panel, "--out", preds,
             "--reject-rate", 0.05]
        ) == 0
        rows = {line.split(",")[0]: line.split(",") for line in preds.read_text().splitlines()}
        assert rows[first.subject_id][3:] == ["0.0", "0", "0.5", "1"]
        assert sum(row[6] == "1" for row in rows.values()) == 1

    @pytest.mark.parametrize(
        "fault, line, named",
        [
            ("short row", 3, "6 cells, the header has 7"),
            ("no pred column", 1, "no pred column"),
            ("empty pred cell", 3, "pred '' is not an integer"),
            ("repeated subject id", 3, "repeated subject id"),
        ],
    )
    def test_malformed_prediction_csv_exits_2(self, tmp_path, capsys, fault, line, named):
        panel = simulate_panel(tmp_path)
        model = tmp_path / "m.json"
        preds = tmp_path / "p.csv"
        run(["train", "--panel", panel, "--out", model])
        run(["predict", "--model", model, "--panel", panel, "--out", preds])
        lines = preds.read_text().splitlines()
        cells = lines[2].split(",")
        if fault == "short row":
            lines[2] = ",".join(cells[:-1])
        elif fault == "no pred column":
            lines[0] = lines[0].replace(",pred,", ",label,")
        elif fault == "empty pred cell":
            lines[2] = ",".join(cells[:4] + [""] + cells[5:])
        else:
            lines[2] = ",".join(lines[1].split(",")[:1] + cells[1:])
        preds.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["evaluate", "--predictions", preds, "--truth", panel]) == 2
        assert f"{preds} line {line}: {named}" in capsys.readouterr().err

    def test_missing_panel_exits_2(self, tmp_path):
        assert run(
            ["train", "--panel", tmp_path / "nope.csv", "--out", tmp_path / "m.json"]
        ) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        """An overflowing step size on a standardized panel names the step size."""
        panel = simulate_panel(tmp_path)
        capsys.readouterr()
        code = run(
            ["train", "--panel", panel, "--out", tmp_path / "m.json",
             "--method", "chi", "--step-size", 1e160, "--steps", 50]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: objective became non-finite at step 1 (step_size=1e+160); "
            "reduce the step size\n"
        )

    @staticmethod
    def huge_panel(tmp_path, scale=1e300):
        """The 40-subject d = 5 panel with every feature scaled by ``scale``:
        finite, but at 1e300 its squares overflow."""
        source = load_panel(simulate_panel(tmp_path, **{"--d": 5, "--n-per-class": 20}))
        panel = tmp_path / "huge.csv"
        write_panel(dataclasses.replace(source, observations=source.observations * scale), panel)
        return panel

    @staticmethod
    def train_stderr(capsys, args):
        """Exit code and stderr lines of ``train``; a numpy warning, which
        would print lines of its own, fails the call."""
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", *args])
        return code, capsys.readouterr().err.splitlines()

    def test_overflowing_uqchi_train_exits_3(self, tmp_path, capsys):
        """Raw features scaled by 1e300 make ||v||^2 overflow: the solve is
        not certified, one line names the cause, and no model with NaN or
        Infinity in it is written."""
        panel, model = self.huge_panel(tmp_path), tmp_path / "m.json"
        code, err = self.train_stderr(
            capsys, ["--panel", panel, "--out", model, "--no-standardize"]
        )
        assert (code, err) == (3, [
            "numerical failure: projected gradient norm nan is not <= tol 1.000e-08 after 0 "
            "iterations: the dual objective overflows at the aggregates' scale; "
            "standardize the features"
        ])
        assert not model.exists()

    @pytest.mark.parametrize("c", [1e154, 1e200, 1e300])
    def test_overflowing_c_names_c(self, tmp_path, capsys, c):
        """On a standardized panel the aggregates are small, and lam near a
        huge c makes ||v||^2 overflow: one line names c, not the features."""
        panel = simulate_panel(
            tmp_path, **{"--d": 5, "--n-per-class": 20, "--label-observed-fraction": 0.5}
        )
        model = tmp_path / "m.json"
        code, err = self.train_stderr(capsys, ["--panel", panel, "--out", model, "--c", c])
        assert (code, err) == (3, [
            "numerical failure: projected gradient norm inf > tol 1.000e-08 after 0 "
            f"iterations: the dual objective overflows at c={c:g}; use a smaller c"
        ])
        assert not model.exists()

    def test_overflowing_chi_names_the_scale(self, tmp_path, capsys):
        panel, model = self.huge_panel(tmp_path), tmp_path / "m.json"
        code, err = self.train_stderr(
            capsys, ["--panel", panel, "--out", model, "--method", "chi", "--no-standardize"]
        )
        assert (code, err) == (3, [
            "numerical failure: objective became non-finite at step 1 (step_size=0.01); its "
            "subgradient at w = 0, b = 0 is not finite: the features' scale overflows it; "
            "standardize the features"
        ])
        assert not model.exists()

    @pytest.mark.parametrize("scale,step_size", [(1e150, 0.01), (1.0, 1e160), (1e200, 0.01)])
    def test_overflowing_chi_cause_follows_the_scale(self, tmp_path, capsys, scale, step_size):
        """While the subgradient at 0 is finite (to scale 1e150), an
        overflowing first step on the raw panel names the features' largest
        magnitude and both remedies, so a unit-scale panel shows the step size
        to be the cause. From 1e200 the subgradient overflows: the 1e300
        message."""
        panel, model = self.huge_panel(tmp_path, scale), tmp_path / "m.json"
        code, err = self.train_stderr(capsys, [
            "--panel", panel, "--out", model, "--method", "chi", "--no-standardize",
            "--step-size", step_size,
        ])
        size = np.abs(load_panel(panel).observations).max()
        cause = (
            f"the first step overflows on raw features as large as {size:.3g}; standardize "
            "the features or reduce the step size" if scale < 1e200 else
            "its subgradient at w = 0, b = 0 is not finite: the features' scale overflows "
            "it; standardize the features"
        )
        assert (code, err) == (3, [
            f"numerical failure: objective became non-finite at step 1 (step_size={step_size}); "
            f"{cause}"
        ])
        assert not model.exists()

    def test_overflowing_squares_are_standardized(self, tmp_path, capsys):
        """fit_standardization falls back to scaled moments, so the 1e300
        panel trains to the model of the unscaled panel."""
        panel, model = self.huge_panel(tmp_path), tmp_path / "m.json"
        code, err = self.train_stderr(capsys, ["--panel", panel, "--out", model])
        assert (code, err) == (0, [])
        reference = tmp_path / "reference.json"
        assert run(["train", "--panel", tmp_path / "panel.csv", "--out", reference]) == 0
        mean = json.loads(model.read_text())["mean_weights"]
        np.testing.assert_allclose(mean, json.loads(reference.read_text())["mean_weights"],
                                   rtol=1e-12)

    @pytest.mark.parametrize("c", [0.5, 1])
    def test_c_at_most_one_is_refused_in_one_line(self, tmp_path, capsys, c):
        """c <= 1 puts every multiplier at 0, so the model would carry no
        data: train says so in one line and writes no model."""
        panel, model = simulate_panel(tmp_path), tmp_path / "m.json"
        code, err = self.train_stderr(capsys, ["--panel", panel, "--out", model, "--c", c])
        assert (code, err) == (2, [
            f"error: margin prior rate c={float(c)} <= 1 puts every lambda at 0, so the model "
            "carries no data and every prediction is +1; use c > 1"
        ])
        assert not model.exists()


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

    def test_panel_source(self, tmp_path):
        panel = simulate_panel(tmp_path)
        out = tmp_path / "out"
        code = run(
            ["sweep", "--out-dir", out, "--panel", panel, "--n-seeds", 1,
             "--train-ratios", "0.6", "--label-ratios", "0.2", "--rejection-rates", "0.2",
             "--c-policy", "fixed", "--fixed-c", "1.5", "--baselines", "uqchi"]
        )
        assert code == 0
        spec_echo = json.loads((out / "spec.json").read_text())
        assert spec_echo["panel_csv"] == str(panel)
        assert spec_echo["sim"] is None
        assert len((out / "results.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_panel_source_refuses_degradation_rate(self, tmp_path, capsys, source):
        args = ["sweep", "--out-dir", tmp_path / "out", "--degradation-rate", 0.5]
        if source == "flag":
            args += ["--panel", tmp_path / "p.csv"]
        else:
            config = tmp_path / "spec.json"
            config.write_text(json.dumps({"sim": None, "panel_csv": str(tmp_path / "p.csv")}))
            args += ["--config", config]
        assert run(args) == 2
        assert "--degradation-rate needs a simulation data source" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"label_ratios": [2.0]}))
        assert run(["sweep", "--config", config, "--out-dir", tmp_path / "o"]) == 2

    @pytest.mark.parametrize(
        "payload,named",
        [
            ({"n_seed": 2}, "ExperimentSpec keys: n_seed"),
            ({"sim": {"bogus": 1}}, "SimConfig keys: bogus"),
            ({"chi_hyper": {"alpah": 1.0, "zeta": 2}}, "ChiHyperparams keys: alpah, zeta"),
            ([["n_seeds", 2]], "ExperimentSpec must be a JSON object"),
            ({"sim": 5}, "SimConfig must be a JSON object"),
            ({"n_seeds": 2.5}, "n_seeds must be an integer, got 2.5"),
            ({"chi_hyper": None}, "chi_hyper must be a ChiHyperparams object, got None"),
            ({"solver_tol": 1e-8}, "unknown ExperimentSpec keys: solver_tol"),
            ({"fixed_c": True}, "fixed_c must be a real number, got True"),
            ({"chi_step_size": "0.1"}, "chi_step_size must be a real number, got '0.1'"),
            ({"c_policy": "fixed", "fixed_c": None}, "fixed_c must be a real number, got None"),
            ({"chi_hyper": {"alpha": "0.1"}}, "alpha must be a real number, got '0.1'"),
            ({"chi_hyper": {"beta": False}}, "beta must be a real number, got False"),
            ({"chi_hyper": {"lambda_var": None}}, "lambda_var must be a real number, got None"),
            ({"chi_hyper": {"alpha": float("nan")}}, "alpha must be finite and non-negative, got nan"),
            ({"chi_hyper": {"beta": float("-inf")}}, "beta must be finite and non-negative, got -inf"),
            ({"chi_hyper": {"gamma_l1": float("inf")}}, "gamma_l1 must be finite and non-negative, got inf"),
            ({"sim": {"d": "5"}}, "d must be an integer, got '5'"),
            ({"c_grid": 5}, "c_grid must be a non-empty list of real numbers, got 5"),
            ({"label_ratios": None}, "label_ratios must be a non-empty list of real numbers, got None"),
            ({"c_grid": [[1.5]]}, "c_grid must be a non-empty list of real numbers, got [[1.5]]"),
            ({"c_grid": [-1.0]}, "c_grid entries must be finite and positive, got -1.0"),
            ({"c_grid": [float("nan")]}, "c_grid entries must be finite and positive, got nan"),
            ({"fixed_c": -2.0}, "fixed_c must be finite and positive, got -2.0"),
            ({"fixed_c": 0.0}, "fixed_c must be finite and positive, got 0.0"),
            ({"fixed_c": float("nan")}, "fixed_c must be finite and positive, got nan"),
            ({"solver_max_iter": 5}, "unknown ExperimentSpec keys: solver_max_iter"),
            # the solver settings are refused by name, whatever their value
            ({"solver_tol": float("nan")}, "unknown ExperimentSpec keys: solver_tol"),
            ({"solver_max_iter": 0}, "unknown ExperimentSpec keys: solver_max_iter"),
            ({"solver_tol": 1e-8, "solver_max_iter": 10_000},
             "unknown ExperimentSpec keys: solver_max_iter, solver_tol"),
            ({"chi_steps": 0}, "chi_steps must be >= 1, got 0"),
            ({"chi_step_size": 0.0}, "chi_step_size must be finite and positive, got 0.0"),
            ({"chi_step_size": float("inf")}, "chi_step_size must be finite and positive, got inf"),
            ({"chi_step_size": float("nan")}, "chi_step_size must be finite and positive, got nan"),
            ({"rejection_rates": []}, "rejection_rates must be a non-empty list of real numbers, got []"),
            ({"panel_csv": 5}, "panel_csv must be a string, got 5"),
            ({"baselines": "uqchi"}, "baselines must be a non-empty list of strings, got 'uqchi'"),
            ({"sim": {"visits_min": True}}, "visits_min must be an integer, got True"),
            ({"sim": {"n_per_class": True}}, "n_per_class must be an integer, got True"),
            ({"sim": {"degradation_rate": float("nan")}}, "degradation_rate must be finite and non-negative, got nan"),
            ({"sim": {"d": 2, "informative_k": 1, "noise_sigmas": [1.0, float("nan")]}},
             "noise_sigmas entries must be finite and non-negative, got nan"),
            ({"sim": {"seed": -1}}, "seed must be non-negative, got -1"),
            ({"sim": {"seed": 3}}, "sim.seed is not a sweep knob"),
        ],
    )
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, payload, named):
        config = tmp_path / "typo.json"
        config.write_text(json.dumps(payload))
        assert run(["sweep", "--config", config, "--out-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert named in err
        if isinstance(payload, dict) and "sim" in payload and not named.startswith("sim."):
            # an error inside the sim config names its parent field first
            field = named.split(" ", 1)[0]
            sim_fields = {f.name for f in dataclasses.fields(SimConfig)}
            assert f"error: sim.{named}" in err if field in sim_fields else "error: sim: " in err

    def test_failed_split_is_logged_and_the_sweep_goes_on(self, tmp_path):
        """One subject per class leaves an empty side at train ratio 0.2;
        every cell of that split logs the error."""
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({
            "sim": {"d": 4, "n_per_class": 1, "informative_k": 1,
                    "label_observed_fraction": 1.0},
            "train_ratios": [0.2], "label_ratios": [0.5], "n_seeds": 1, "c_policy": "fixed",
        }))
        out = tmp_path / "o"
        assert run(["sweep", "--config", config, "--out-dir", out]) == 0
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["uqchi"] * 3 + ["chi"]
        assert all(row.endswith(",,,0,,1") for row in rows)
        errors = {json.loads(line)["error"] for line in (out / "runs.jsonl").open()}
        assert errors == {"ValueError: split leaves an empty train or test side"}
