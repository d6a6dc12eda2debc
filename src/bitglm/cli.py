"""Command-line front end.

Subcommands: ``fim``, ``fit``, ``simulate``, ``check-conditions``.
Configs are JSON documents (conventionally ``.cfg``); parsing is strict,
unknown keys are errors.  Every run that writes files also writes a
``manifest.json`` sufficient to reproduce it: config hash (stable under
key reordering), effective seed, tool version, timestamps and output
paths.

Exit codes: 0 ok, 2 config error, 3 degenerate model input,
4 non-identifiable data, 5 runtime failure.
"""

import argparse
import dataclasses
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, fisher, models, montecarlo
from .estimator import FitConfig, fit
from .exceptions import (
    BitGlmError,
    ConfigError,
    DegenerateLikelihood,
    DegenerateThreshold,
    DomainError,
    ExperimentFailure,
    NonIdentifiable,
    NumericalError,
)
from .types import CensoredDataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NON_IDENTIFIABLE = 4
EXIT_RUNTIME = 5


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

def load_json_config(path):
    """Parse a JSON config file, reporting line/column on syntax errors."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid config syntax: {err.msg}",
            location=f"line {err.lineno}, column {err.colno}",
        ) from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def config_hash(doc):
    """sha256 of the canonical (sorted-key) JSON encoding."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _check_keys(obj, path, required=(), optional=()):
    if not isinstance(obj, dict):
        raise ConfigError(f"expected an object at {path}")
    allowed = set(required) | set(optional)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}", location=path)
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"missing required key(s) {missing}", location=path)


def _number(value, path, expected="a number"):
    """A JSON number as a float; JSON's true and false are not numbers."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"expected {expected}", location=path)


def _floats(value, count, path):
    """A scalar (broadcast to count) or an explicit non-empty list of floats."""
    expected = "a number or a non-empty list of numbers"
    if isinstance(value, list) and value:
        return np.array([_number(v, path, expected) for v in value], dtype=float)
    value = _number(value, path, expected)
    if count is None:
        raise ConfigError("scalar needs an explicit 'count'", location=path)
    return np.full(count, value)


def _integer(value, path, minimum):
    """A JSON integer >= ``minimum``; JSON's true and false are not integers."""
    if isinstance(value, int) and not isinstance(value, bool) and value >= minimum:
        return value
    raise ConfigError(f"expected an integer >= {minimum}", location=path)


def _count(doc):
    """A config's optional ``count``: None, or a JSON integer >= 1 that, beside
    a threshold list, equals its length."""
    if "count" not in doc:
        return None
    count = _integer(doc["count"], "count", 1)
    if isinstance(doc["thresholds"], list) and len(doc["thresholds"]) != count:
        raise ConfigError(
            f"count is {count} but thresholds lists {len(doc['thresholds'])} entries",
            location="count",
        )
    return count


def _family_class(model, path, keys):
    """The family class a model section names, once the section is checked
    to hold exactly ``name`` and the keys ``keys(cls)`` lists."""
    # ``optional=model`` allows every key present: only the type and
    # ``name`` are checked before the family is known
    _check_keys(model, path, required=("name",), optional=model)
    cls = models.REGISTRY.get(model["name"]) if isinstance(model["name"], str) else None
    if cls is None:
        raise ConfigError(f"unknown model {model['name']!r}", location=f"{path}.name")
    _check_keys(model, path, required=("name", *keys(cls)))
    return cls


def _model_values(model, cls, keys, n, path):
    """``keys`` of a checked model section as floats, the family's
    per-observation key as n of them."""
    out = {}
    for key in keys:
        if key != cls.per_obs_key:
            out[key] = _number(model[key], f"{path}.{key}")
            continue
        out[key] = _floats(model[key], n, f"{path}.{key}")
        if out[key].shape[0] != n:
            raise ConfigError(
                f"{key} lists {out[key].shape[0]} entries but there are {n} observations",
                location=f"{path}.{key}",
            )
    return out


def build_model_instance(doc, path="model"):
    """(family, theta0, designs) from a model+thresholds config section."""
    _check_keys(doc, "<root>", required=("model", "thresholds"), optional=("count", "fit"))
    model = doc["model"]
    cls = _family_class(model, path, lambda c: (c.per_obs_key, *c.param_keys))
    taus = _floats(doc["thresholds"], _count(doc), "thresholds")
    params = _model_values(model, cls, (cls.per_obs_key, *cls.param_keys), taus.shape[0], path)
    family, theta0 = cls.from_params(params.pop(cls.per_obs_key), params)
    return family, theta0, family.design_set(taus)


def _build_fit_config(doc, path="fit"):
    # every solver setting but an explicit start, which configs cannot give
    keys = [f.name for f in dataclasses.fields(FitConfig) if f.name != "start"]
    _check_keys(doc, path, optional=keys)
    try:
        return FitConfig(**doc)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err), location=path) from err


def _build_rule(rule_cls, doc, path):
    """A WeightsRule or ThresholdRule from its config object."""
    keys = [f.name for f in dataclasses.fields(rule_cls)]
    _check_keys(doc, path, required=("kind",), optional=keys)
    tupled = {k: (tuple(v) if isinstance(v, list) else v) for k, v in doc.items()}
    try:
        return rule_cls(**tupled)
    except (ConfigError, TypeError, ValueError) as err:
        raise ConfigError(str(err), location=path) from err


_EXPERIMENT_KEYS = dict(
    required=(
        "model",
        "true_params",
        "weights",
        "thresholds",
        "sample_sizes",
        "trials",
        "seed",
    ),
    optional=("name", "error_metric", "estimator", "fit", "max_failure_fraction"),
)


def build_experiment(doc, path="experiment", seed_override=None):
    """(name, ExperimentConfig) from one experiment section."""
    _check_keys(doc, path, **_EXPERIMENT_KEYS)
    name = doc.get("name", "experiment")
    if not isinstance(doc["true_params"], dict):
        raise ConfigError("true_params must be an object", location=f"{path}.true_params")
    true_params = {
        k: _number(v, f"{path}.true_params.{k}") for k, v in doc["true_params"].items()
    }
    fit_cfg = _build_fit_config(doc.get("fit", {}), f"{path}.fit")
    weights = _build_rule(montecarlo.WeightsRule, doc["weights"], f"{path}.weights")
    thresholds = _build_rule(montecarlo.ThresholdRule, doc["thresholds"], f"{path}.thresholds")
    if not isinstance(doc["sample_sizes"], list):
        raise ConfigError("expected a list of integers", location=f"{path}.sample_sizes")
    sizes = tuple(_integer(n, f"{path}.sample_sizes", 1) for n in doc["sample_sizes"])
    trials = _integer(doc["trials"], f"{path}.trials", 1)
    seed = _integer(doc["seed"], f"{path}.seed", 0)
    budget = _number(doc.get("max_failure_fraction", 0.05), f"{path}.max_failure_fraction")
    try:
        config = montecarlo.ExperimentConfig(
            model=doc["model"],
            true_params=true_params,
            weights=weights,
            thresholds=thresholds,
            sample_sizes=sizes,
            trials=trials,
            seed=seed if seed_override is None else int(seed_override),
            error_metric=doc.get("error_metric", "moment-coordinates"),
            estimator=doc.get("estimator", "censored"),
            fit=fit_cfg,
            max_failure_fraction=budget,
        )
    except (ConfigError, TypeError, ValueError) as err:
        raise ConfigError(str(err), location=path) from err
    return name, config


def load_experiments(doc, seed_override=None):
    """All experiment sections of a simulate config, in file order."""
    if "experiment" in doc:
        _check_keys(doc, "<root>", required=("experiment",))
        return [build_experiment(doc["experiment"], "experiment", seed_override)]
    _check_keys(doc, "<root>", required=("experiments",))
    if not isinstance(doc["experiments"], list) or not doc["experiments"]:
        raise ConfigError("experiments must be a non-empty list", location="experiments")
    out = []
    for i, section in enumerate(doc["experiments"]):
        out.append(build_experiment(section, f"experiments[{i}]", seed_override))
    names = [n for n, _ in out]
    if len(set(names)) != len(names):
        raise ConfigError("experiment names must be unique", location="experiments")
    return out


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

def load_data_file(path, family_section):
    """Read observations: a 'd k' header line, then 'b tau v11 ... vdk' rows.

    ``family_section`` is the config's model object; it supplies the
    family's ``fit_keys`` (sigma, means), which the row format does not
    carry.  Returns (family, CensoredDataset).
    """
    cls = _family_class(family_section, "model", lambda c: c.fit_keys)
    rows = []
    header = None
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ConfigError(
                    f"{path}: header must be 'd k'", location=f"line {lineno}"
                )
            try:
                header = (int(fields[0]), int(fields[1]))
            except ValueError as err:
                raise ConfigError(
                    f"{path}: header must hold two integers", location=f"line {lineno}"
                ) from err
            continue
        d, k = header
        if len(fields) != 2 + d * k:
            raise ConfigError(
                f"{path}: expected {2 + d * k} fields (b tau v11..v{d}{k})",
                location=f"line {lineno}",
            )
        try:
            b = int(fields[0])
            vals = [float(v) for v in fields[1:]]
        except ValueError as err:
            raise ConfigError(f"{path}: malformed number", location=f"line {lineno}") from err
        if b not in (-1, 1):
            raise ConfigError(f"{path}: bit must be -1 or +1", location=f"line {lineno}")
        rows.append((lineno, b, vals[0], np.array(vals[1:]).reshape(d, k)))
    if header is None or not rows:
        raise ConfigError(f"{path}: no observations found")

    d, k = header
    bits = np.array([b for _, b, _, _ in rows])
    taus = np.array([t for _, _, t, _ in rows])
    V = np.stack([v for _, _, _, v in rows])
    n = bits.shape[0]

    if (d, k) != (cls.d, cls.k):
        raise ConfigError(
            f"data file declares d={d}, k={k} but model {cls.name!r} needs "
            f"d={cls.d}, k={cls.k}"
        )
    section = _model_values(family_section, cls, cls.fit_keys, n, "model")
    family, designs = cls.from_data(V, taus, section)
    try:
        family.check_designs(designs)
    except DomainError as err:
        if err.index is None:
            raise
        raise ConfigError(f"{path}: {err}", location=f"line {rows[err.index][0]}") from err
    return family, CensoredDataset(bits, designs)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _utcnow():
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


class _Manifest:
    def __init__(self, command, doc, path, seed):
        self.payload = {
            "tool": "bitglm",
            "version": __version__,
            "command": command,
            "config_path": str(path),
            "config_hash": config_hash(doc),
            "seed": seed,
            "started_at": _utcnow(),
            "finished_at": None,
            "outputs": [],
        }

    def add_output(self, path):
        self.payload["outputs"].append(str(path))

    def write(self, out_dir):
        self.payload["finished_at"] = _utcnow()
        target = Path(out_dir) / "manifest.json"
        target.write_text(json.dumps(self.payload, indent=2) + "\n", encoding="utf-8")
        return target


def _matrix_json(m):
    return [[float(v) for v in row] for row in np.atleast_2d(m)]


def _print(s=""):
    sys.stdout.write(s + "\n")


def _emit(args, payload, human_lines):
    if args.json:
        _print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            _print(line)


def _write_json_report(args, doc, payload, filename):
    """With ``--out``, ``payload`` as ``filename`` and its manifest."""
    if args.out:
        manifest = _Manifest(args.command, doc, args.config, None)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / filename
        target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        manifest.add_output(target.name)
        manifest.write(out_dir)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_sweep(spec):
    try:
        idx, lo, hi, step = spec.split(":")
        idx = int(idx)
        lo, hi, step = float(lo), float(hi), float(step)
        if step <= 0 or hi < lo or idx < 0:
            raise ValueError
    except ValueError:
        raise ConfigError(
            "--sweep expects INDEX:LO:HI:STEP with STEP > 0 and HI >= LO",
            location="--sweep",
        ) from None
    return idx, lo, hi, step


def _threshold_sweep(family, theta0, designs, spec):
    """Censored information over a grid of one design's threshold.

    No closed threshold-optimality rule exists beyond the known-variance
    mean model, so sweeps are the supported way to explore thresholds for
    the other families.  Reports the information value for scalar models
    and the determinant for larger ones.
    """
    idx, lo, hi, step = spec
    if idx >= designs.n:
        raise ConfigError(f"--sweep index {idx} out of range (n={designs.n})")
    grid = np.arange(lo, hi + step / 2, step)
    rows = []
    for tau in grid:
        taus = designs.taus.copy()
        taus[idx] = tau
        swept = type(designs)(designs.V, taus, designs.aux)
        try:
            r = fisher.fim_censored(family, theta0, swept)
        except (DegenerateThreshold, NumericalError):
            continue
        value = float(r.matrix[0, 0]) if r.k == 1 else r.determinant
        rows.append((float(tau), value))
    return rows


def cmd_fim(args):
    doc = load_json_config(args.config)
    family, theta0, designs = build_model_instance(doc)
    if args.sweep:
        rows = _threshold_sweep(family, theta0, designs, _parse_sweep(args.sweep))
        label = "information" if family.k == 1 else "det_information"
        payload = {"model": family.name, "sweep": [[t, v] for t, v in rows], "value": label}
        _emit(args, payload, [f"tau,{label}", *(f"{t!r},{v!r}" for t, v in rows)])
        _write_json_report(args, doc, payload, "fim-sweep.json")
        return EXIT_OK
    report = fisher.dpi_check(family, theta0, designs)
    j, i = report.censored, report.uncensored
    payload = {
        "model": family.name,
        "k": j.k,
        "censored": _matrix_json(j.matrix),
        "det_censored": j.determinant,
        "min_eigenvalue_censored": j.min_eigenvalue,
        "uncensored": _matrix_json(i.matrix),
        "det_uncensored": i.determinant,
        "min_eigenvalue_uncensored": i.min_eigenvalue,
        "dpi_min_eigenvalue_gap": report.min_eigenvalue_gap,
        "dpi_passed": report.passed,
    }
    if j.k == 1:
        payload["censored_to_uncensored_ratio"] = float(j.matrix[0, 0] / i.matrix[0, 0])
    lines = [
        f"model: {family.name} (n={designs.n})",
        f"censored information:   {np.array2string(j.matrix, precision=10)}",
        f"  det={j.determinant:.10g}  min eigenvalue={j.min_eigenvalue:.10g}",
        f"uncensored information: {np.array2string(i.matrix, precision=10)}",
        f"  det={i.determinant:.10g}  min eigenvalue={i.min_eigenvalue:.10g}",
        f"information gap min eigenvalue: {report.min_eigenvalue_gap:.3e} "
        f"({'ok' if report.passed else 'VIOLATED'})",
    ]
    if "censored_to_uncensored_ratio" in payload:
        lines.append(f"censored/uncensored ratio: {payload['censored_to_uncensored_ratio']:.12g}")
    _emit(args, payload, lines)
    _write_json_report(args, doc, payload, "fim.json")
    return EXIT_OK


def cmd_fit(args):
    doc = load_json_config(args.config)
    _check_keys(doc, "<root>", required=("model",), optional=("fit",))
    family, data = load_data_file(args.data, doc["model"])
    result = fit(family, data, _build_fit_config(doc.get("fit", {})))
    moment = family.to_moment(result.theta_hat.values)
    payload = {
        "model": family.name,
        "theta_hat": [float(v) for v in result.theta_hat.values],
        "moment_labels": list(family.moment_labels()),
        "moment_values": [float(v) for v in moment],
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "final_score_norm": result.final_score_norm,
        "log_likelihood": result.log_likelihood,
        "observed_information": _matrix_json(result.observed_information),
    }
    lines = [
        f"model: {family.name} (n={data.n})",
        f"theta_hat (natural): {np.array2string(result.theta_hat.values, precision=10)}",
        f"estimate ({', '.join(family.moment_labels())}): {np.array2string(moment, precision=10)}",
        f"status: {result.status} after {result.iterations} iterations "
        f"(|score|_inf = {result.final_score_norm:.3e})",
        f"log-likelihood: {result.log_likelihood:.10g}",
        f"observed information: {np.array2string(result.observed_information, precision=6)}",
    ]
    _emit(args, payload, lines)
    _write_json_report(args, doc, payload, "fit.json")
    return EXIT_OK


def cmd_simulate(args):
    doc = load_json_config(args.config)
    experiments = load_experiments(doc, seed_override=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest("simulate", doc, args.config, args.seed)
    for name, config in experiments:
        table = montecarlo.run_mse_experiment(config)
        csv_text = table.to_csv()
        target = out_dir / f"{name}.csv"
        target.write_text(csv_text, encoding="utf-8")
        manifest.add_output(target.name)
        _print(f"[{name}] model={config.model} trials={config.trials} -> {target}")
        for line in csv_text.strip().splitlines():
            _print("  " + line)
    path = manifest.write(out_dir)
    _print(f"manifest: {path}")
    return EXIT_OK


def cmd_check_conditions(args):
    doc = load_json_config(args.config)
    family, theta0, designs = build_model_instance(doc)
    report = montecarlo.check_consistency_conditions(family, theta0, designs)
    payload = {
        "model": family.name,
        "max_third_abs_moment": report.max_third_abs_moment,
        "max_design_norm": report.max_design_norm,
        "avg_information": _matrix_json(report.avg_information),
        "min_eigenvalue": report.min_eigenvalue,
        "determinant": report.determinant,
        "prefix_drift": report.prefix_drift,
        "moments_bounded": report.moments_bounded,
        "designs_bounded": report.designs_bounded,
        "information_positive": report.information_positive,
        "passed": report.passed,
    }
    def mark(ok):
        return "pass" if ok else "FAIL"

    lines = [
        f"model: {family.name} (n={designs.n})",
        f"(1) max E[||T||^3] = {report.max_third_abs_moment:.6g} "
        f"... {mark(report.moments_bounded)}",
        f"(2) max ||V||_inf  = {report.max_design_norm:.6g} "
        f"... {mark(report.designs_bounded)}",
        f"(3) avg information min eigenvalue = {report.min_eigenvalue:.6g}, "
        f"det = {report.determinant:.6g}, prefix drift = {report.prefix_drift:.3g} "
        f"... {mark(report.information_positive)}",
        f"overall: {mark(report.passed)}",
    ]
    if family.name == "gaussian-case3":
        # clause (3) already holds the averaged information's eigenvalue; all
        # zero weights leave its first row and column zero, so it fails there
        nonzero = float(np.mean(family.weights != 0.0))
        payload["positive_definiteness_check"] = {
            "max_abs_weight": float(np.max(np.abs(family.weights))),
            "nonzero_weight_fraction": nonzero,
            "min_eigenvalue": report.min_eigenvalue,
            "passed": report.information_positive,
        }
        lines.append(
            f"positive-definiteness sufficient conditions: {mark(report.information_positive)} "
            f"(nonzero-weight fraction {nonzero:.3g}, "
            f"min eigenvalue {report.min_eigenvalue:.6g})"
        )
    _emit(args, payload, lines)
    _write_json_report(args, doc, payload, "conditions.json")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bitglm",
        description="Estimation and information analysis for 1-bit censored GLMs.",
    )
    parser.add_argument("--version", action="version", version=f"bitglm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, out_required=False):
        p.add_argument("--config", required=True, help="JSON config file")
        if data:
            p.add_argument("--data", required=True, help="observation file")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", default=None, help="output directory for reports")
        p.add_argument("--json", action="store_true", help="JSON on stdout")

    p = sub.add_parser("fim", help="censored/uncensored information report")
    common(p)
    p.add_argument(
        "--sweep",
        default=None,
        metavar="INDEX:LO:HI:STEP",
        help="sweep one design's threshold over a grid and report the "
        "censored information (determinant for multi-parameter models)",
    )
    p.set_defaults(func=cmd_fim)

    p = sub.add_parser("fit", help="maximum-likelihood fit of a data file")
    common(p, data=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="repeated-trial MSE experiment to CSV")
    common(p, out_required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check-conditions", help="consistency-condition report")
    common(p)
    p.set_defaults(func=cmd_check_conditions)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        loc = f" ({err.location})" if err.location else ""
        print(f"config error{loc}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateThreshold, DegenerateLikelihood, NumericalError, DomainError) as err:
        print(f"degenerate model input: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NonIdentifiable as err:
        print(f"non-identifiable data: {err}", file=sys.stderr)
        return EXIT_NON_IDENTIFIABLE
    except (BitGlmError, ExperimentFailure, ValueError, np.linalg.LinAlgError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
