"""End-to-end CLI behavior: exit codes, strict parsing, reproducible
artifacts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bitglm import cli, models
from bitglm.cli import config_hash, load_json_config

CONFIG_DIR = Path(cli.__file__).parent / "configs"
#: the directory holding the package under test, put first on the child's
#: path so that it runs the same bitglm whether or not it is installed
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parents[1])


def run_cli(*args):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bitglm.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


FOUR_ROW_DATA = """\
# known-variance gaussian, unit weights and sigma
1 1
1 0.0 1.0
1 0.0 1.0
1 0.0 1.0
-1 0.0 1.0
"""

CASE1_FIT_CFG = '{"model": {"name": "gaussian-case1", "sigma": 1.0}}\n'


class TestConfigErrors:
    def test_malformed_json_reports_position(self, tmp_path):
        cfg = write(tmp_path, "bad.cfg", '{"model": {"name": }}')
        code, _, err = run_cli("fim", "--config", cfg)
        assert code == 2
        assert "line 1" in err and "column" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(
            tmp_path,
            "bad.cfg",
            '{"model": {"name": "poisson", "theta": 0.0, "covariates": 1.0, '
            '"thresold_typo": 1}, "thresholds": [0.0]}',
        )
        code, _, err = run_cli("fim", "--config", cfg)
        assert code == 2
        assert "thresold_typo" in err

    def test_missing_file(self):
        code, _, _ = run_cli("fim", "--config", "/nonexistent/x.cfg")
        assert code == 2

    def test_unknown_model(self, tmp_path):
        cfg = write(
            tmp_path, "bad.cfg", '{"model": {"name": "cauchy"}, "thresholds": [0.0]}'
        )
        code, _, err = run_cli("fim", "--config", cfg)
        assert code == 2


class TestFim:
    def test_two_point_example(self, tmp_path):
        code, out, _ = run_cli("fim", "--config", str(CONFIG_DIR / "two-point.cfg"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["det_censored"] == pytest.approx(0.1294, abs=5e-4)
        assert doc["dpi_passed"] is True

    def test_case1_optimal_ratio(self, tmp_path):
        code, out, _ = run_cli(
            "fim", "--config", str(CONFIG_DIR / "case1-optimal.cfg"), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["censored_to_uncensored_ratio"] - 2 / math.pi) <= 1e-12

    def test_degenerate_threshold_exit_code(self, tmp_path):
        cfg = write(
            tmp_path,
            "degen.cfg",
            '{"model": {"name": "poisson", "theta": 0.0, "covariates": 1.0},'
            ' "thresholds": [400.0]}',
        )
        code, _, err = run_cli("fim", "--config", cfg)
        assert code == 3

    def test_threshold_sweep(self, tmp_path):
        # grid sweep over one threshold; the two-parameter determinant must
        # peak strictly inside the range (spread-out thresholds inform)
        code, out, _ = run_cli(
            "fim",
            "--config",
            str(CONFIG_DIR / "two-point.cfg"),
            "--sweep",
            "1:0.0:4.0:0.05",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        taus = [t for t, _ in doc["sweep"]]
        vals = [v for _, v in doc["sweep"]]
        assert doc["value"] == "det_information"
        best = taus[int(np.argmax(vals))]
        assert 0.0 < best < 4.0
        assert max(vals) > vals[0] and max(vals) > vals[-1]

    def test_sweep_spec_validated(self):
        code, _, err = run_cli(
            "fim", "--config", str(CONFIG_DIR / "two-point.cfg"), "--sweep", "banana"
        )
        assert code == 2

    def test_report_written_with_manifest(self, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            "fim", "--config", str(CONFIG_DIR / "two-point.cfg"), "--out", str(out_dir)
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"] == ["fim.json"]
        assert manifest["config_hash"] == config_hash(
            load_json_config(CONFIG_DIR / "two-point.cfg")
        )


class TestFit:
    def test_four_row_example(self, tmp_path):
        cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data = write(tmp_path, "obs.dat", FOUR_ROW_DATA)
        code, out, _ = run_cli("fit", "--config", cfg, "--data", data, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["theta_hat"][0] == pytest.approx(-0.6744897501960817, abs=1e-7)
        assert doc["converged"] is True

    def test_one_sided_data_exits_4(self, tmp_path):
        cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data = write(
            tmp_path, "obs.dat", "1 1\n1 0.0 1.0\n1 0.0 1.0\n1 0.5 1.0\n"
        )
        code, _, err = run_cli("fit", "--config", cfg, "--data", data)
        assert code == 4
        assert "non-identifiable" in err

    def test_roundtrip_matches_in_process(self, tmp_path):
        from bitglm import CensoredDataset, fit
        from bitglm.estimator import FitConfig

        cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data_path = write(tmp_path, "obs.dat", FOUR_ROW_DATA)
        code, out, _ = run_cli("fit", "--config", cfg, "--data", data_path, "--json")
        doc = json.loads(out)

        fam = models.GaussianCase1(np.ones(4), sigma=1.0)
        dataset = CensoredDataset([1, 1, 1, -1], fam.design_set(np.zeros(4)))
        res = fit(fam, dataset, FitConfig())
        assert doc["theta_hat"] == [float(v) for v in res.theta_hat.values]
        assert doc["log_likelihood"] == res.log_likelihood
        assert doc["iterations"] == res.iterations
        assert doc["observed_information"] == [
            [float(v) for v in row] for row in res.observed_information
        ]

    @pytest.mark.parametrize(
        "body",
        [
            "1\n1 0.0 1.0\n",  # malformed header
            "1 1\n1 0.0\n",  # missing design entry
            "1 1\n2 0.0 1.0\n",  # invalid bit
            "1 1\none 0.0 1.0\n",  # non-numeric
        ],
    )
    def test_data_file_errors(self, tmp_path, body):
        cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data = write(tmp_path, "obs.dat", body)
        code, _, err = run_cli("fit", "--config", cfg, "--data", data)
        assert code == 2
        assert "line" in err


class TestFixedDesignEntries:
    """Case 2 fixes V = [[-1/2]] and case 3 V = [[w, 0], [0, -1/2]]; a data
    row with any other entry is a config error naming its line."""

    CASE3 = '{"model": {"name": "gaussian-case3"}}'
    CASE2 = '{"model": {"name": "gaussian-case2", "means": [0, 0, 0, 0]}}'

    @staticmethod
    def case3_rows():
        rows = [f"{b} {tau} {w} 0 0 -0.5" for w in (0.5, 1.5) for tau in (-1, 1) for b in (1, -1)]
        return ["2 2", *rows]

    @pytest.mark.parametrize("field, value", [(3, "5"), (5, "-2")])  # V_12, V_22
    def test_case3_rows_off_the_fixed_entries_exit_2(self, tmp_path, capsys, field, value):
        cfg = write(tmp_path, "fit.cfg", self.CASE3)
        good = write(tmp_path, "good.dat", "\n".join(self.case3_rows()) + "\n")
        assert main_in_process(capsys, "fit", "--config", cfg, "--data", good)[0] == 0
        lines = self.case3_rows()
        fields = lines[4].split()
        fields[field] = value
        lines[4] = " ".join(fields)
        data = write(tmp_path, "obs.dat", "\n".join(lines) + "\n")
        code, err = main_in_process(capsys, "fit", "--config", cfg, "--data", data)
        assert code == 2
        assert "(line 5)" in err and "[[w, 0], [0, -1/2]]" in err

    @pytest.mark.parametrize("v, code", [("-0.5", 0), ("-2", 2)])
    def test_case2_rows_fix_v(self, tmp_path, capsys, v, code):
        cfg = write(tmp_path, "fit.cfg", self.CASE2)
        body = "1 1\n1 -1.0 -0.5\n-1 -0.3 -0.5\n1 0.3 -0.5\n-1 1.0 V\n".replace("V", v)
        data = write(tmp_path, "obs.dat", body)
        got, err = main_in_process(capsys, "fit", "--config", cfg, "--data", data)
        assert got == code
        if code:
            assert "(line 5)" in err and "[[-1/2]]" in err


class TestSimulate:
    def test_smoke_config_runs_and_is_reproducible(self, tmp_path):
        import time

        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = str(CONFIG_DIR / "smoke.cfg")
        t0 = time.perf_counter()
        code, _, _ = run_cli("simulate", "--config", cfg, "--out", str(out_a))
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        code, _, _ = run_cli("simulate", "--config", cfg, "--out", str(out_b))
        assert code == 0
        csv_a = (out_a / "smoke.csv").read_bytes()
        csv_b = (out_b / "smoke.csv").read_bytes()
        assert csv_a == csv_b
        lines = csv_a.decode().strip().split("\n")
        assert lines[0] == "n,mse,mc_stderr,failures"
        assert len(lines) == 3  # one row per sample size
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["outputs"] == ["smoke.csv"]

    def test_seed_override_changes_results(self, tmp_path):
        cfg = str(CONFIG_DIR / "smoke.cfg")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("simulate", "--config", cfg, "--out", str(out_a), "--seed", "1")
        run_cli("simulate", "--config", cfg, "--out", str(out_b), "--seed", "2")
        assert (out_a / "smoke.csv").read_bytes() != (out_b / "smoke.csv").read_bytes()
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert manifest["seed"] == 1

    def test_runtime_failure_exit_code(self, tmp_path):
        # every trial of this experiment fails (all counts are zero), which
        # breaches the failure budget and is a runtime failure, not a
        # config problem
        cfg = write(
            tmp_path,
            "doomed.cfg",
            json.dumps(
                {
                    "experiment": {
                        "name": "doomed",
                        "model": "poisson",
                        "true_params": {"theta": -8.0},
                        "estimator": "uncensored",
                        "weights": {"kind": "constant", "value": 1.0},
                        "thresholds": {"kind": "fixed", "value": 1.0},
                        "sample_sizes": [20],
                        "trials": 5,
                        "seed": 1,
                    }
                }
            ),
        )
        code, _, err = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 5
        assert "runtime failure" in err

    def test_fig1_config_parses(self):
        doc = load_json_config(CONFIG_DIR / "fig1.cfg")
        experiments = cli.load_experiments(doc)
        assert [name for name, _ in experiments] == [
            "uncensored",
            "mixture-0.42-2.0",
            "mixture-1.2-1.9",
        ]
        for _, config in experiments:
            assert config.trials >= 2000
            assert config.sample_sizes == (1000, 1778, 3162, 5623, 10000)


class TestCheckConditions:
    def test_report(self, tmp_path):
        code, out, _ = run_cli(
            "check-conditions", "--config", str(CONFIG_DIR / "two-point.cfg"), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["positive_definiteness_check"]["passed"] is True

    def test_human_output_lists_clauses(self):
        code, out, _ = run_cli(
            "check-conditions", "--config", str(CONFIG_DIR / "case1-optimal.cfg")
        )
        assert code == 0
        assert "(1)" in out and "(2)" in out and "(3)" in out

    @staticmethod
    def _case3(tmp_path, capsys, weights, taus):
        """(payload, its positive-definiteness part) of check-conditions on
        gaussian-case3 at alpha = sigma = 1; the part reads clause (3)."""
        doc = {
            "model": {"name": "gaussian-case3", "alpha": 1.0, "sigma": 1.0, "weights": weights},
            "thresholds": taus,
        }
        cfg = write(tmp_path, "case3.cfg", json.dumps(doc))
        assert cli.main(["check-conditions", "--config", cfg, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        posdef = out["positive_definiteness_check"]
        assert posdef["min_eigenvalue"] == out["min_eigenvalue"]
        return out, posdef

    def test_all_zero_weights_fail_nontriviality(self, tmp_path, capsys):
        _, posdef = self._case3(tmp_path, capsys, [0.0, 0.0, 0.0], [0.1, 0.5, 0.9])
        assert posdef["nonzero_weight_fraction"] == 0.0
        assert posdef["passed"] is False

    def test_identical_thresholds_are_rank_one(self, tmp_path, capsys):
        out, posdef = self._case3(tmp_path, capsys, 1.0, [0.3] * 20)
        assert posdef["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)
        assert out["information_positive"] is False
        assert posdef["passed"] is False

    def test_continuous_thresholds_pass(self, tmp_path, capsys):
        taus = np.random.default_rng(11).uniform(0.0, 3.0, 1000)
        _, posdef = self._case3(tmp_path, capsys, 1.0, taus.tolist())
        assert posdef["min_eigenvalue"] > 0
        assert posdef["passed"] is True


def main_in_process(capsys, *args):
    """(exit code, stderr) of ``bitglm ARGS`` run in this process."""
    code = cli.main(list(args))
    return code, capsys.readouterr().err


class TestFamilyKeys:
    """Each model section holds exactly the keys its family names:
    ``per_obs_key`` and ``param_keys`` for fim and check-conditions,
    ``fit_keys`` for fit and ``param_keys`` as simulate's true_params."""

    def test_readme_lists_each_familys_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        for cls in models.REGISTRY.values():
            fit_keys = f"`{', '.join(cls.fit_keys)}`" if cls.fit_keys else "none"
            row = f"| `{cls.name}` | `{cls.per_obs_key}` | `{', '.join(cls.param_keys)}` | {fit_keys} |"
            assert row in readme

    @pytest.mark.parametrize("command", ["fim", "check-conditions"])
    def test_other_familys_keys_rejected(self, tmp_path, capsys, command):
        cfg = write(
            tmp_path,
            "x.cfg",
            '{"model": {"name": "poisson", "theta": 0.0, "covariates": 1.0, '
            '"alpha": 9, "sigma": 2}, "thresholds": [1.0]}',
        )
        code, err = main_in_process(capsys, command, "--config", cfg)
        assert code == 2
        assert "alpha" in err and "sigma" in err

    @pytest.mark.parametrize("value", ["[1]", "null", '"x"', "true"])
    @pytest.mark.parametrize("command", ["fim", "check-conditions"])
    def test_scalar_model_keys_must_be_numbers(self, tmp_path, capsys, command, value):
        cfg = write(
            tmp_path,
            "x.cfg",
            f'{{"model": {{"name": "poisson", "theta": {value}, "covariates": 1.0}}, '
            '"thresholds": [1.0]}',
        )
        code, err = main_in_process(capsys, command, "--config", cfg)
        assert code == 2
        assert "model.theta" in err

    @pytest.mark.parametrize(
        "thresholds, count",
        [
            ("0.5", '"x"'),
            ("0.5", "-1"),
            ("0.5", "0"),
            ("0.5", "2.5"),
            ("0.5", "true"),
            ("[0.5, 1.0]", "5"),
        ],
    )
    def test_count_is_a_positive_integer(self, tmp_path, capsys, thresholds, count):
        cfg = write(
            tmp_path,
            "x.cfg",
            '{"model": {"name": "poisson", "theta": 0.0, "covariates": 1.0}, '
            f'"thresholds": {thresholds}, "count": {count}}}',
        )
        code, err = main_in_process(capsys, "fim", "--config", cfg)
        assert code == 2
        assert "(count)" in err

    def test_thresholds_must_not_be_empty(self, tmp_path, capsys):
        cfg = write(
            tmp_path,
            "x.cfg",
            '{"model": {"name": "poisson", "theta": 0.0, "covariates": 1.0}, "thresholds": []}',
        )
        code, err = main_in_process(capsys, "fim", "--config", cfg)
        assert code == 2
        assert "(thresholds)" in err

    @pytest.mark.parametrize(
        "model, key",
        [
            ('{"sigma": 1.0}', "name"),
            ('{"name": "gaussian-case1"}', "sigma"),
            ('{"name": "gaussian-case2"}', "means"),
            ('{"name": "gaussian-case1", "sigma": 1.0, "bogus": 1}', "bogus"),
            ('{"name": "gaussian-case3", "sigma": 1.0}', "sigma"),
            ('[1, 2]', "model"),
        ],
    )
    def test_fit_model_section_checked(self, tmp_path, capsys, model, key):
        cfg = write(tmp_path, "fit.cfg", f'{{"model": {model}}}')
        data = write(tmp_path, "obs.dat", FOUR_ROW_DATA)
        code, err = main_in_process(capsys, "fit", "--config", cfg, "--data", data)
        assert code == 2
        assert key in err

    @pytest.mark.parametrize(
        "key", ["backtracking_factor", "sufficient_increase", "multistart_count", "seed"]
    )
    def test_fit_section_has_no_line_search_keys(self, tmp_path, capsys, key):
        cfg = write(
            tmp_path,
            "fit.cfg",
            f'{{"model": {{"name": "gaussian-case1", "sigma": 1.0}}, "fit": {{"{key}": 0.5}}}}',
        )
        data = write(tmp_path, "obs.dat", FOUR_ROW_DATA)
        code, err = main_in_process(capsys, "fit", "--config", cfg, "--data", data)
        assert code == 2
        assert key in err

    def test_fit_means_need_one_entry_per_row(self, tmp_path, capsys):
        cfg = write(tmp_path, "fit.cfg", '{"model": {"name": "gaussian-case2", "means": [0, 1]}}')
        data = write(tmp_path, "obs.dat", FOUR_ROW_DATA.replace("0.0 1.0", "0.0 -0.5"))
        code, err = main_in_process(capsys, "fit", "--config", cfg, "--data", data)
        assert code == 2
        assert "means" in err

    @staticmethod
    def _experiment(name, **overrides):
        doc = {
            "name": name,
            "model": "gaussian-case1",
            "true_params": {"alpha": 0.5, "sigma": 1.0},
            "weights": {"kind": "constant", "value": 1.0},
            "thresholds": {"kind": "fixed", "value": 0.5},
            "sample_sizes": [50],
            "trials": 1,
            "seed": 1,
        }
        doc.update(overrides)
        return doc

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"true_params": {"alpha": 0.5}}, "sigma"),
            ({"true_params": {"alpha": 0.5, "sigma": 1.0, "theta": 2.0}}, "theta"),
            ({"weights": {"kind": "list", "values": []}}, "values"),
            ({"weights": {"kind": "constant", "value": 1.0, "low": 0.0}}, "low"),
            ({"weights": {"kind": "zigzag", "value": 1.0}}, "zigzag"),
            ({"thresholds": {"kind": "fixed"}}, "value"),
            ({"thresholds": {"kind": "fixed", "value": 1.0, "sd": 2.0}}, "sd"),
            ({"thresholds": {"kind": "iid-gamma", "mu": 1.0, "sd": 2.0}}, "iid-gamma"),
            (
                {"thresholds": {"kind": "two-point", "values": [0, 1], "probabilities": [0.6, 0.6]}},
                "probabilities",
            ),
            (
                {"thresholds": {"kind": "two-point", "values": [0, 1], "probabilities": [1.0]}},
                "probabilities",
            ),
            *(
                ({"true_params": {"alpha": value, "sigma": 1.0}}, "true_params.alpha")
                for value in (True, None, "0.5", [0.5])
            ),
            *(({"trials": value}, "trials") for value in (2.5, True, "3", 0)),
            *(({"seed": value}, "seed") for value in (1.5, True, "1", -1)),
            *(
                ({"sample_sizes": value}, "sample_sizes")
                for value in ([50.5], [True], ["50"], [0], 50)
            ),
            *(
                ({"max_failure_fraction": value}, "max_failure_fraction")
                for value in ("0.1", True, -0.5, 1.0)
            ),
            ({"fit": {"multistart_count": 1}}, "multistart_count"),
        ],
    )
    def test_simulate_checks_every_experiment_before_running(
        self, tmp_path, capsys, override, key
    ):
        # the bad experiment comes second: nothing may run or be written
        doc = {"experiments": [self._experiment("good"), self._experiment("bad", **override)]}
        cfg = write(tmp_path, "sim.cfg", json.dumps(doc))
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == 2
        assert key in err and "experiments[1]" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["fim", "fit", "check-conditions"])
def test_only_simulate_takes_a_seed(tmp_path, capsys, command):
    # the seed fed nothing on fim and check-conditions, and on fit only the
    # solver's jittered starts, which are gone
    cfg = write(tmp_path, "x.cfg", CASE1_FIT_CFG)
    data = ["--data", write(tmp_path, "obs.dat", FOUR_ROW_DATA)] if command == "fit" else []
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--config", cfg, *data, "--seed", "1"])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err


class TestConfigHash:
    def test_stable_under_key_reordering(self, tmp_path):
        a = load_json_config(
            write(tmp_path, "a.cfg", '{"model": {"name": "poisson", "theta": 1.0}, "x": 1}')
        )
        b = load_json_config(
            write(tmp_path, "b.cfg", '{"x": 1, "model": {"theta": 1.0, "name": "poisson"}}')
        )
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})
