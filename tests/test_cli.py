"""End-to-end CLI behavior: exit codes, strict parsing, reproducible
artifacts."""

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

from bitglm import ConfigError, cli, models
from bitglm.cli import config_hash, load_json_config
from bitglm.montecarlo import ExperimentConfig, ThresholdRule, WeightsRule

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

#: a 400-digit integer, which no float holds
HUGE = int("9" * 400)

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

    def test_config_that_is_a_directory(self, tmp_path, capsys):
        code, err = main_in_process(capsys, "fim", "--config", str(tmp_path))
        assert code == 2
        assert "config error" in err

    def test_out_that_is_a_file(self, tmp_path, capsys):
        taken = write(tmp_path, "taken", "")
        cfg = str(CONFIG_DIR / "two-point.cfg")
        code, err = main_in_process(capsys, "fim", "--config", cfg, "--out", taken)
        assert code == 2
        assert "config error" in err

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfe{\x00}\x00")
        code, err = main_in_process(capsys, "fim", "--config", str(cfg))
        assert code == 2
        assert "config error" in err and str(cfg) in err and "UTF-8" in err

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

    @pytest.mark.parametrize(
        "command, tau, cause",
        [
            ("fim", 1.0, "the gaussian-case2 information in theta overflows a float"),
            ("fim", 100.0, "sigma**4 overflows a float at sigma = 1e+150"),
            ("check-conditions", 1.0, "sigma**6 overflows a float at sigma = 1e+150"),
        ],
        ids=["fim", "fim-uncensored", "check-conditions"],
    )
    def test_case2_sigma_power_overflow_is_degenerate(
        self, tmp_path, capsys, command, tau, cause
    ):
        # sigma**4 of the uncensored information and 15 sigma**6 of the
        # third moment overflowed as a raw OverflowError: exit 1, a traceback.
        # fim then warned of an overflow in matmul first: the censored
        # information, which it reads first, is about sigma^4 in theta too,
        # unless the thresholds lie so far out (tau sigma) that it is 0
        cfg = write(
            tmp_path,
            "huge.cfg",
            '{"model": {"name": "gaussian-case2", "means": 0.0, "sigma": 1e150},'
            f' "thresholds": [{-tau}e150, {tau}e150]}}',
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = main_in_process(capsys, command, "--config", cfg)
        assert code == cli.EXIT_DEGENERATE == 3
        assert err == f"degenerate model input: {cause}\n"

    def test_overflowing_information_errs_without_a_warning(self, tmp_path):
        # the Gram sum in beta overflowed first, and warned of it in a
        # multiply before the information in theta raised.  fim reads the
        # information first; check-conditions stops earlier, at clause (1)
        cfg = write(
            tmp_path,
            "huge.cfg",
            '{"model": {"name": "gaussian-case3", "weights": 1.0, "alpha": 1e200,'
            ' "sigma": 1.0}, "thresholds": [1e200, 1e200, 1e200]}',
        )
        code, _, err = run_cli("fim", "--config", cfg)
        assert code == cli.EXIT_DEGENERATE == 3
        assert err == (
            "degenerate model input: the gaussian-case3 information in theta overflows a float\n"
        )

    def test_prefix_drift_of_a_huge_information(self, tmp_path):
        # the average information is 4.4e299: its norm's sum of squares
        # overflowed, with a warning, before the scaling by a power of two
        cfg = write(
            tmp_path,
            "tiny.cfg",
            '{"model": {"name": "gaussian-case1", "weights": 1.0, "alpha": 0.0,'
            ' "sigma": 1e-150}, "thresholds": [1e-150, -1e-150]}',
        )
        code, out, err = run_cli("check-conditions", "--config", cfg)
        assert (code, err) == (0, "")
        assert "min eigenvalue = 4.38629e+299" in out and "prefix drift = 0 ... pass" in out

    @pytest.mark.parametrize(
        "name, alpha, cause",
        [
            ("gaussian-case1", "1e200", "E|X|^3 overflows a float at mu = 1e+200"),
            ("gaussian-case1", "6e102", "E|X|^3 overflows a float at mu = 6e+102"),
            ("gaussian-case3", "3e51", "E|X|^3 + E[X^6] overflows a float at mu = 3e+51"),
            ("gaussian-case3", "-3e51", "E|X|^3 + E[X^6] overflows a float at mu = -3e+51"),
        ],
    )
    def test_overflowing_third_moment_is_degenerate(self, tmp_path, capsys, name, alpha, cause):
        # clause (1) read inf and printed "(1) max sum_j E|T_j|^3 = inf ...
        # FAIL" with exit 0, after three RuntimeWarnings at alpha = 1e200;
        # an overflow is a typed error, as case 2's sigma**6 is
        cfg = write(
            tmp_path,
            "far.cfg",
            f'{{"model": {{"name": "{name}", "weights": 1.0, "alpha": {alpha},'
            f' "sigma": 1.0}}, "thresholds": [{alpha}, {alpha}]}}',
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = main_in_process(capsys, "check-conditions", "--config", cfg)
        assert code == cli.EXIT_DEGENERATE == 3
        assert err == f"degenerate model input: {cause}, sigma = 1\n"

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

    @pytest.mark.parametrize("spec", ["banana", "0:0:1:nan", "0:nan:1:1", "0:0:inf:1"])
    def test_sweep_spec_validated(self, capsys, spec):
        code, err = main_in_process(
            capsys, "fim", "--config", str(CONFIG_DIR / "two-point.cfg"), "--sweep", spec
        )
        assert code == 2
        assert "config error (--sweep)" in err

    def test_unallocatable_sweep_is_a_runtime_failure(self, capsys):
        # numpy refuses the 7 PiB grid up front, before allocating anything
        code, err = main_in_process(
            capsys, "fim", "--config", str(CONFIG_DIR / "two-point.cfg"),
            "--sweep", "0:0:1e12:1e-3",
        )
        assert code == 5
        assert "runtime failure" in err

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

        cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data_path = write(tmp_path, "obs.dat", FOUR_ROW_DATA)
        code, out, _ = run_cli("fit", "--config", cfg, "--data", data_path, "--json")
        doc = json.loads(out)

        fam = models.GaussianCase1(np.ones(4), sigma=1.0)
        dataset = CensoredDataset([1, 1, 1, -1], fam.design_set(np.zeros(4)))
        res = fit(fam, dataset)
        assert doc["theta_hat"] == [float(v) for v in res.theta_hat]
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
            "1 1\n1 0.0 1.0\n-1 nan 1.0\n",  # non-finite threshold
            "1 1\n1 0.0 inf\n",  # non-finite design entry
            "1 -1\n1\n",  # header with a negative k
            "-1 -1\n1 0.0 1.0\n",  # header with both negative
            "1 2\n1 0.0 1.0 1.0\n",  # header of another family's shape
        ],
    )
    def test_data_file_errors(self, tmp_path, body):
        cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data = write(tmp_path, "obs.dat", body)
        code, _, err = run_cli("fit", "--config", cfg, "--data", data)
        assert code == 2
        assert "line" in err

    def test_data_file_that_is_not_utf8(self, tmp_path, capsys):
        cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data = tmp_path / "obs.dat"
        data.write_bytes(b"\xff" + FOUR_ROW_DATA.encode())
        code, err = main_in_process(capsys, "fit", "--config", cfg, "--data", str(data))
        assert code == 2
        assert "config error" in err and str(data) in err and "UTF-8" in err

    def test_poisson_negative_threshold_names_its_line(self, tmp_path, capsys):
        cfg = write(tmp_path, "fit.cfg", '{"model": {"name": "poisson"}}')
        data = write(tmp_path, "obs.dat", "1 1\n1 2.0 1.0\n-1 -1.0 1.0\n")
        code, err = main_in_process(capsys, "fit", "--config", cfg, "--data", data)
        assert code == 2
        assert "(line 3)" in err and "thresholds must be >= 0" in err


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
        assert doc["min_eigenvalue"] > 0 and doc["information_positive"] is True
        assert "positive_definiteness_check" not in doc

    def test_human_output_lists_clauses(self):
        code, out, _ = run_cli(
            "check-conditions", "--config", str(CONFIG_DIR / "case1-optimal.cfg")
        )
        assert code == 0
        assert "(1)" in out and "(2)" in out and "(3)" in out

    @staticmethod
    def _case3(tmp_path, capsys, weights, taus):
        """The payload of check-conditions on gaussian-case3 at alpha = sigma = 1."""
        doc = {
            "model": {"name": "gaussian-case3", "alpha": 1.0, "sigma": 1.0, "weights": weights},
            "thresholds": taus,
        }
        cfg = write(tmp_path, "case3.cfg", json.dumps(doc))
        assert cli.main(["check-conditions", "--config", cfg, "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_all_zero_weights_fail_nontriviality(self, tmp_path, capsys):
        # zero weights leave the information's first row and column zero
        out = self._case3(tmp_path, capsys, [0.0, 0.0, 0.0], [0.1, 0.5, 0.9])
        assert out["avg_information"][0] == [0.0, 0.0]
        assert out["min_eigenvalue"] == 0.0
        assert out["information_positive"] is False

    def test_identical_thresholds_are_rank_one(self, tmp_path, capsys):
        out = self._case3(tmp_path, capsys, 1.0, [0.3] * 20)
        assert out["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)
        assert out["information_positive"] is False

    def test_case3_moment_at_a_huge_mean(self, tmp_path):
        # a quadrature printed "(1) max E[||T||^3] = -7.97885e+119 ... pass"
        # here, after IntegrationWarnings on stderr
        cfg = write(
            tmp_path,
            "huge.cfg",
            '{"model": {"name": "gaussian-case3", "weights": 1.0, "alpha": 1e20, "sigma": 1.0},'
            ' "thresholds": [1e20, 1e20, 1e20]}',
        )
        code, out, err = run_cli("check-conditions", "--config", cfg, "--out", str(tmp_path))
        assert code == 0 and err == ""
        assert "(1) max sum_j E|T_j|^3 = 1e+120 ... pass" in out.splitlines()
        # E|X|^3 + E[X^6] = 1e120 (1 + 1.5e-39 + ...) at mu = 1e20, sigma = 1
        doc = json.loads((tmp_path / "conditions.json").read_text())
        assert doc["max_third_abs_moment"] == 1e120 and doc["moments_bounded"] is True

    def test_continuous_thresholds_pass(self, tmp_path, capsys):
        taus = np.random.default_rng(11).uniform(0.0, 3.0, 1000)
        out = self._case3(tmp_path, capsys, 1.0, taus.tolist())
        assert out["min_eigenvalue"] > 0
        assert out["information_positive"] is True


def main_in_process(capsys, *args):
    """(exit code, stderr) of ``bitglm ARGS`` run in this process."""
    code = cli.main(list(args))
    return code, capsys.readouterr().err


#: (override, key) pairs: an experiment section with ``override`` applied is
#: rejected with ``key`` in the message
EXPERIMENT_ERRORS = [
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
        for value in ([50.5], [True], ["50"], [0], 50, [2**63], [int("9" * 400)])
    ),
    *(
        ({"max_failure_fraction": value}, "max_failure_fraction")
        for value in ("0.1", True, -0.5, 1.0)
    ),
    # non-finite numbers and rule fields that the rule's kind reads
    *(
        ({"true_params": {"alpha": value, "sigma": 1.0}}, "true_params.alpha")
        for value in (math.nan, math.inf)
    ),
    ({"weights": {"kind": "constant", "value": "abc"}}, "value"),
    ({"weights": {"kind": "list", "values": [1.0, math.nan]}}, "values"),
    ({"weights": {"kind": "iid-uniform", "low": 2.0, "high": 1.0}}, "low"),
    ({"thresholds": {"kind": "fixed", "value": True}}, "value"),
    ({"thresholds": {"kind": "iid-uniform", "low": 0.0, "high": -math.inf}}, "high"),
    ({"thresholds": {"kind": "iid-uniform", "low": 2.0, "high": 1.0}}, "low"),
    ({"thresholds": {"kind": "iid-normal", "mu": 0.0, "sd": -1.0}}, "sd"),
    (
        {"thresholds": {"kind": "two-point", "values": [0, 1], "probabilities": [1.5, -0.5]}},
        "probabilities",
    ),
    (
        {"thresholds": {"kind": "two-point", "values": [0, math.inf], "probabilities": [1, 0]}},
        "values",
    ),
]


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

    @pytest.mark.parametrize("value", ["[1]", "null", '"x"', "true", "NaN", "Infinity", "-Infinity"])
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

    @pytest.mark.parametrize(
        "model, thresholds, key",
        [
            ('"gaussian-case1", "weights": 1, "alpha": NaN, "sigma": 1', "[1.0]", "model.alpha"),
            ('"gaussian-case1", "weights": 1, "alpha": 0, "sigma": Infinity', "[1.0]", "model.sigma"),
            ('"poisson", "theta": 0.0, "covariates": 1.0', "[1.0, Infinity]", "thresholds"),
            ('"poisson", "theta": 0.0, "covariates": [1.0, NaN]', "[1.0, 2.0]", "model.covariates"),
            pytest.param(
                f'"poisson", "theta": 1{"0" * 400}, "covariates": 1', "[1.0]", "model.theta",
                id="integer-beyond-float",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["fim", "check-conditions"])
    def test_numbers_must_be_finite(self, tmp_path, capsys, command, model, thresholds, key):
        # Python's json reads NaN and Infinity; they are config errors too
        doc = f'{{"model": {{"name": {model}}}, "thresholds": {thresholds}}}'
        code, err = main_in_process(capsys, command, "--config", write(tmp_path, "x.cfg", doc))
        assert code == 2
        assert f"({key})" in err

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
        "section",
        [
            {},
            {"max_iterations": 200},
            # keys the fit section rejected before it was removed
            *(
                {key: 0.5}
                for key in (
                    "backtracking_factor", "sufficient_increase", "multistart_count", "seed"
                )
            ),
        ],
    )
    def test_fit_config_has_no_fit_section(self, tmp_path, capsys, section):
        # the solver takes no settings: its iteration cap is a constant
        doc = {"model": {"name": "gaussian-case1", "sigma": 1.0}, "fit": section}
        cfg = write(tmp_path, "fit.cfg", json.dumps(doc))
        data = write(tmp_path, "obs.dat", FOUR_ROW_DATA)
        code, err = main_in_process(capsys, "fit", "--config", cfg, "--data", data)
        assert code == 2
        assert "config error (<root>): unknown key(s) ['fit']" in err

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

    @pytest.mark.parametrize("override, key", EXPERIMENT_ERRORS)
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

    def test_a_failed_run_writes_no_csv(self, tmp_path, capsys):
        # the good curve runs and prints first; the second fails every trial
        # (all counts are zero), so no CSV may be left without a manifest
        doomed = self._experiment(
            "doomed", model="poisson", true_params={"theta": -8.0}, estimator="uncensored",
            thresholds={"kind": "fixed", "value": 1.0}, sample_sizes=[20], trials=5,
        )
        doc = {"experiments": [self._experiment("good"), doomed]}
        cfg = write(tmp_path, "sim.cfg", json.dumps(doc))
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        printed = capsys.readouterr()
        assert code == 5 and "runtime failure" in printed.err
        assert "[good]" in printed.out and "n,mse,mc_stderr,failures" in printed.out
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("override, key", EXPERIMENT_ERRORS)
    def test_library_rejects_what_simulate_rejects(self, override, key):
        # the same section built directly: its rules from their objects,
        # then the experiment, which checks its own fields
        doc = self._experiment("bad", **override)
        del doc["name"]
        with pytest.raises(ConfigError, match=re.escape(key)):
            doc["weights"] = WeightsRule(**doc["weights"])
            doc["thresholds"] = ThresholdRule(**doc["thresholds"])
            ExperimentConfig(**doc)

    @pytest.mark.parametrize(
        "section",
        [
            {},
            {"max_iterations": 50},
            # sections that failed on their own keys or values before
            {"multistart_count": 1},
            {"start": [0.0]},
            *({"max_iterations": value} for value in (math.inf, 2.5)),
            {"gradient_tolerance": 1e-9},
        ],
    )
    def test_fit_is_an_unknown_experiment_key(self, tmp_path, capsys, section):
        # the solver takes no settings: its iteration cap is a constant
        unknown = "unknown key(s) ['fit']"
        with pytest.raises(ConfigError, match=re.escape(unknown)) as err:
            cli.build_experiment(self._experiment("x", fit=section))
        assert err.value.location == "experiment"
        # the bad experiment comes second: nothing may run or be written
        doc = {"experiments": [self._experiment("good"), self._experiment("bad", fit=section)]}
        cfg = write(tmp_path, "sim.cfg", json.dumps(doc))
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == 2
        assert f"config error (experiments[1]): {unknown}" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", [["a"], "../escaped", "sub/dir", "", 5, ".", ".."])
    def test_experiment_names_are_file_names_in_out(self, tmp_path, capsys, name):
        # the bad name comes second: nothing may run or be written, in --out or beside it
        doc = {"experiments": [self._experiment("good"), self._experiment(name)]}
        cfg = write(tmp_path, "sim.cfg", json.dumps(doc))
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == 2
        assert "experiments[1].name" in err
        assert not out.exists() and not (tmp_path / "escaped.csv").exists()

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"weights": {"kind": "constant", "value": HUGE}}, "value"),
            ({"thresholds": {"kind": "iid-uniform", "low": 0.0, "high": HUGE}}, "high"),
            ({"true_params": {"alpha": HUGE, "sigma": 1.0}}, "true_params.alpha"),
            ({"max_failure_fraction": HUGE}, "max_failure_fraction"),
        ],
    )
    def test_huge_integers_are_config_errors(self, tmp_path, capsys, override, key):
        # a float cannot hold a 400-digit integer: a config error, not an OverflowError
        doc = {"experiment": self._experiment("x", **override)}
        cfg = write(tmp_path, "sim.cfg", json.dumps(doc))
        out = tmp_path / "out"
        code, err = main_in_process(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == 2
        assert key in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_override_is_a_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path, "sim.cfg", json.dumps({"experiment": self._experiment("x")}))
        out = tmp_path / "out"
        argv = ["simulate", "--config", cfg, "--out", str(out), "--seed", "-1"]
        code, err = main_in_process(capsys, *argv)
        assert code == 2
        assert "seed" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["fim", "check-conditions"])
def test_model_instance_configs_take_no_fit_section(tmp_path, capsys, command):
    doc = json.loads((CONFIG_DIR / "two-point.cfg").read_text(encoding="utf-8"))
    cfg = write(tmp_path, "x.cfg", json.dumps({**doc, "fit": "garbage"}))
    code, err = main_in_process(capsys, command, "--config", cfg)
    assert code == 2
    assert "unknown key(s) ['fit']" in err


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


class TestRunRecord:
    """Every ``--out`` run leaves its outputs and one manifest naming them."""

    KEYS = [
        "tool", "version", "command", "config_path", "config_hash", "seed",
        "started_at", "finished_at", "outputs", "environment",
    ]

    def test_every_command_writes_the_same_record(self, tmp_path, capsys):
        fit_cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data = write(tmp_path, "obs.dat", FOUR_ROW_DATA)
        two_point = str(CONFIG_DIR / "two-point.cfg")
        runs = [
            (["fim", "--config", two_point], ["fim.json"]),
            (["fim", "--config", two_point, "--sweep", "1:0:1:0.5"], ["fim-sweep.json"]),
            (["fit", "--config", fit_cfg, "--data", data], ["fit.json"]),
            (["check-conditions", "--config", two_point], ["conditions.json"]),
            (["simulate", "--config", str(CONFIG_DIR / "smoke.cfg")], ["smoke.csv"]),
        ]
        for i, (args, outputs) in enumerate(runs):
            out = tmp_path / f"out{i}"
            assert cli.main([*args, "--out", str(out)]) == 0
            capsys.readouterr()
            assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])
            manifest = json.loads((out / "manifest.json").read_text())
            assert list(manifest) == self.KEYS
            assert manifest["command"] == args[0] and manifest["outputs"] == outputs
            assert manifest["config_path"] == args[2] and manifest["seed"] is None
            assert manifest["config_hash"] == config_hash(load_json_config(args[2]))
            if outputs[0].endswith(".json"):
                assert json.loads((out / outputs[0]).read_text())["model"]

    @pytest.mark.parametrize("suffix", ["", "/sub"])
    def test_simulate_checks_out_before_any_experiment(self, tmp_path, capsys, suffix):
        # a file as --out, or a directory below one
        out = write(tmp_path, "taken", "") + suffix
        code = cli.main(["simulate", "--config", str(CONFIG_DIR / "smoke.cfg"), "--out", out])
        printed = capsys.readouterr()
        assert code == 2 and "config error" in printed.err
        assert printed.out == ""

    @pytest.mark.parametrize(
        "command", ["fim", "fim --sweep 1:0:1:0.5", "fit", "check-conditions"]
    )
    def test_every_command_checks_out_before_computing(self, tmp_path, capsys, command):
        # a file as --out: the command stops before it computes or prints
        taken = write(tmp_path, "taken", "")
        args = command.split()
        if args[0] == "fit":
            data = write(tmp_path, "obs.dat", FOUR_ROW_DATA)
            args += ["--config", write(tmp_path, "fit.cfg", CASE1_FIT_CFG), "--data", data]
        else:
            args += ["--config", str(CONFIG_DIR / "two-point.cfg")]
        code = cli.main([*args, "--out", taken])
        printed = capsys.readouterr()
        assert code == 2 and "config error" in printed.err
        assert printed.out == ""


def test_closed_stdout_exits_quietly():
    # the reader takes one line of a long sweep and closes the pipe
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bitglm.cli", "fim", "--config", str(CONFIG_DIR / "two-point.cfg"),
         "--sweep", "1:0:4:0.0005"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline() == b"tau,det_information\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


#: (command, config text, data file text or None, extra arguments, location
#: or None, message) of config errors that the other tests never raise
RARE_CONFIG_ERRORS = [
    pytest.param("fim", "[1, 2]", None, [], None, "config must be a JSON object", id="array"),
    pytest.param(
        "fim",
        '{"model": {"name": "poisson", "theta": 0.0, "covariates": 1.0}, "thresholds": 0.5}',
        None, [], "thresholds", "scalar needs an explicit 'count'", id="scalar-without-count",
    ),
    pytest.param(
        "simulate", '{"experiments": []}', None, [], "experiments",
        "experiments must be a non-empty list", id="no-experiments",
    ),
    pytest.param(
        "simulate",
        json.dumps({"experiments": [TestFamilyKeys._experiment("a")] * 2}),
        None, [], "experiments", "experiment names must be unique", id="duplicate-names",
    ),
    pytest.param(
        "fit", CASE1_FIT_CFG, "1 x\n1 0.0 1.0\n", [], "line 1", "header must be 'd k' = '1 1'",
        id="non-integer-header",
    ),
    pytest.param(
        "fit", CASE1_FIT_CFG, "# no rows\n1 1\n", [], None, "no observations found",
        id="no-rows",
    ),
    pytest.param(
        "fim", (CONFIG_DIR / "two-point.cfg").read_text(), None, ["--sweep", "2:0:1:0.5"], None,
        "--sweep index 2 out of range (n=2)", id="sweep-index-beyond-n",
    ),
]


@pytest.mark.parametrize("command, config, data, extra, location, message", RARE_CONFIG_ERRORS)
def test_rare_config_errors_exit_2_at_their_location(
    tmp_path, capsys, command, config, data, extra, location, message
):
    args = [command, "--config", write(tmp_path, "x.cfg", config), *extra]
    if data is not None:
        args += ["--data", write(tmp_path, "obs.dat", data)]
    if command == "simulate":
        args += ["--out", str(tmp_path / "out")]
    code, err = main_in_process(capsys, *args)
    assert code == 2
    assert err.startswith(f"config error ({location}): " if location else "config error: ")
    assert message in err


class TestRarePaths:
    def test_count_broadcasts_a_scalar_threshold(self, tmp_path, capsys):
        model = '{"name": "poisson", "theta": 0.0, "covariates": 1.0}'
        docs = [
            f'{{"model": {model}, "thresholds": 1.0, "count": 3}}',
            f'{{"model": {model}, "thresholds": [1.0, 1.0, 1.0]}}',
        ]
        outs = []
        for i, doc in enumerate(docs):
            assert cli.main(["fim", "--config", write(tmp_path, f"{i}.cfg", doc), "--json"]) == 0
            outs.append(json.loads(capsys.readouterr().out))
        assert outs[0] == outs[1]
        assert outs[0]["uncensored"] == [[3.0]]  # three rows at rate 1

    def test_one_design_has_no_prefix_drift(self, tmp_path, capsys):
        # clause (3)'s probe compares the first half of the designs with all
        # of them, and one design has no first half
        model = {"name": "gaussian-case1", "alpha": 0.5, "sigma": 1.0, "weights": 1.0}
        cfg = write(tmp_path, "x.cfg", json.dumps({"model": model, "thresholds": [0.5]}))
        assert cli.main(["check-conditions", "--config", cfg, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert math.isnan(out["prefix_drift"])
        assert out["min_eigenvalue"] == pytest.approx(2 / math.pi, rel=1e-12) and out["passed"]

    def test_weights_that_average_to_zero_start_at_zero(self, tmp_path, capsys):
        # no design has both bits, so the start is the anchor alpha = 0,
        # where log Phi(-alpha) + log Phi(alpha) peaks
        cfg = write(tmp_path, "fit.cfg", CASE1_FIT_CFG)
        data = write(tmp_path, "obs.dat", "1 1\n1 0.0 1.0\n1 0.0 -1.0\n")
        assert cli.main(["fit", "--config", cfg, "--data", data, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["converged"] and out["theta_hat"] == [0.0] and out["iterations"] == 1
