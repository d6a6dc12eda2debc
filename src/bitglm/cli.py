"""Command-line front end.

Subcommands: ``fim``, ``fit``, ``simulate``, ``check-conditions``.
Configs are JSON documents (conventionally ``.cfg``); parsing is strict,
unknown keys are errors.  Every run with ``--out`` writes its files and
then a ``manifest.json`` sufficient to reproduce it: config hash (stable
under key reordering), the ``--seed`` override (null when the config's
seeds apply), tool version, timestamps, output names and the environment:
the python, numpy and scipy versions and numpy's BLAS.

Exit codes: 0 ok, 2 config error, 3 degenerate model input,
4 non-identifiable data, 5 runtime failure, 141 stdout closed early.
"""

import argparse
import dataclasses
import datetime
import hashlib
import inspect
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__, fisher, models, montecarlo
from .estimator import fit
from .exceptions import (
    BitGlmError,
    ConfigError,
    DegenerateLikelihood,
    DegenerateThreshold,
    DomainError,
    NonIdentifiable,
    NumericalError,
)
from .types import CensoredDataset, is_finite_number, is_integer

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NON_IDENTIFIABLE = 4
EXIT_RUNTIME = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by a closed pipe


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

def _read_text(path):
    """The text of a config or data file; one that is not UTF-8 is a config error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from err


def load_json_config(path):
    """Parse a JSON config file, reporting line/column on syntax errors."""
    text = _read_text(path)
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


def _number(value, path, expected="a finite number"):
    """A finite JSON number (``is_finite_number``) as a float."""
    if is_finite_number(value):
        return float(value)
    raise ConfigError(f"expected {expected}", location=path)


def _floats(value, count, path):
    """A scalar (broadcast to count) or an explicit non-empty list of floats."""
    expected = "a finite number or a non-empty list of finite numbers"
    if isinstance(value, list) and value:
        return np.array([_number(v, path, expected) for v in value], dtype=float)
    value = _number(value, path, expected)
    if count is None:
        raise ConfigError("scalar needs an explicit 'count'", location=path)
    return np.full(count, value)


def _count(doc):
    """A config's optional ``count``: None, or a JSON integer >= 1 that, beside
    a threshold list, equals its length."""
    if "count" not in doc:
        return None
    count = doc["count"]
    if not is_integer(count, 1):
        raise ConfigError("expected an integer >= 1", location="count")
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


def build_model_instance(doc):
    """(family, theta0, designs) from a model+thresholds config section."""
    _check_keys(doc, "<root>", required=("model", "thresholds"), optional=("count",))
    model = doc["model"]
    cls = _family_class(model, "model", lambda c: (c.per_obs_key, *c.param_keys))
    taus = _floats(doc["thresholds"], _count(doc), "thresholds")
    params = _model_values(model, cls, (cls.per_obs_key, *cls.param_keys), taus.shape[0], "model")
    family, theta0 = cls.from_params(params.pop(cls.per_obs_key), params)
    return family, theta0, family.design_set(taus)


def _build(cls, doc, path):
    """``cls`` from its config section ``doc`` at ``path``.

    The section's keys are the dataclass's fields, those without a default
    required; a field whose type is a dataclass is a section built the same
    way.  Other values pass unchanged, lists as tuples, for ``cls`` to
    check, and its error is a ConfigError at ``path``.
    """
    fields = inspect.signature(cls).parameters
    required = [k for k, p in fields.items() if p.default is p.empty]
    _check_keys(doc, path, required=required, optional=fields)
    values = {}
    for key, value in doc.items():
        if dataclasses.is_dataclass(fields[key].annotation):
            values[key] = _build(fields[key].annotation, value, f"{path}.{key}")
        else:
            values[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**values)
    except (ConfigError, TypeError, ValueError) as err:
        raise ConfigError(str(err), location=path) from err


def build_experiment(doc, path="experiment", seed_override=None):
    """(name, ExperimentConfig) from one experiment section.  The optional
    ``name`` names the experiment's CSV in the output directory, so it must
    be a file name there: a non-empty string with no path separator, not
    "." or ".."."""
    _check_keys(doc, path, optional=doc)  # the type only: _build checks the keys
    section = dict(doc)
    name = section.pop("name", "experiment")
    file_name = isinstance(name, str) and Path(name).name == name and "\0" not in name
    if not file_name or name in ("", ".", ".."):
        raise ConfigError(
            "expected a file name: a non-empty string with no path separator, not . or ..",
            location=f"{path}.name",
        )
    config = _build(montecarlo.ExperimentConfig, section, path)
    if seed_override is not None:
        config = dataclasses.replace(config, seed=seed_override)
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
    d, k = cls.d, cls.k
    rows = []
    header = None
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            header = fields
            try:
                matches = [int(f) for f in fields] == [d, k]
            except ValueError:
                matches = False
            if not matches:
                raise ConfigError(
                    f"{path}: header must be 'd k' = '{d} {k}' for model {cls.name!r}",
                    location=f"line {lineno}",
                )
            continue
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
        if not all(map(math.isfinite, vals)):
            raise ConfigError(f"{path}: numbers must be finite", location=f"line {lineno}")
        if b not in (-1, 1):
            raise ConfigError(f"{path}: bit must be -1 or +1", location=f"line {lineno}")
        rows.append((lineno, b, vals[0], np.array(vals[1:]).reshape(d, k)))
    if not rows:
        raise ConfigError(f"{path}: no observations found")

    _, bits, taus, V = zip(*rows)
    section = _model_values(family_section, cls, cls.fit_keys, len(rows), "model")
    family, designs = cls.from_data(np.stack(V), np.array(taus), section)
    try:
        family.check_designs(designs)
    except DomainError as err:
        if err.index is None:
            raise
        raise ConfigError(f"{path}: {err}", location=f"line {rows[err.index][0]}") from err
    return family, CensoredDataset(np.array(bits), designs)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _utcnow():
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _make_out(args):
    """Create ``--out``, if given: each command calls this before it computes."""
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)


def _write_run(args, doc, started_at, files):
    """Write ``files`` ({file name: text}) into the ``--out`` directory, then
    the ``manifest.json`` that names them; returns the manifest's path."""
    out_dir = Path(args.out)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")
    blas = np.show_config("dicts")["Build Dependencies"]["blas"]
    manifest = {
        "tool": "bitglm",
        "version": __version__,
        "command": args.command,
        "config_path": str(args.config),
        "config_hash": config_hash(doc),
        "seed": getattr(args, "seed", None),
        "started_at": started_at,
        "finished_at": _utcnow(),
        "outputs": list(files),
        "environment": dict(
            python=platform.python_version(), numpy=np.__version__, scipy=scipy.__version__,
            blas=f"{blas['name']} {blas['version']}"),
    }
    target = out_dir / "manifest.json"
    target.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return target


def _report(args, doc, started_at, payload, lines, filename):
    """Print ``payload`` (``--json``) or ``lines``; with ``--out``, also
    write ``payload`` as ``filename``."""
    print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
    if args.out:
        _write_run(args, doc, started_at, {filename: json.dumps(payload, indent=2) + "\n"})
    return EXIT_OK


def _matrix_json(m):
    return [[float(v) for v in row] for row in np.atleast_2d(m)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_sweep(spec, n):
    try:
        idx, lo, hi, step = spec.split(":")
        idx = int(idx)
        lo, hi, step = float(lo), float(hi), float(step)
        # NaN fails every comparison
        if idx < 0 or not (0 < step < math.inf and -math.inf < lo <= hi < math.inf):
            raise ValueError
    except ValueError:
        raise ConfigError(
            "--sweep expects INDEX:LO:HI:STEP with finite LO <= HI and STEP > 0",
            location="--sweep",
        ) from None
    if idx >= n:
        raise ConfigError(f"--sweep index {idx} out of range (n={n})")
    return idx, lo, hi, step


def cmd_fim(args, doc, started_at):
    family, theta0, designs = build_model_instance(doc)
    spec = _parse_sweep(args.sweep, designs.n) if args.sweep else None
    _make_out(args)
    if spec:
        idx, lo, hi, step = spec
        grid = np.arange(lo, hi + step / 2, step)
        # the determinant of a 1 x 1 information is its value
        rows = [(t, r.determinant) for t, r in fisher.fim_sweep(family, theta0, designs, idx, grid)]
        label = "information" if family.k == 1 else "det_information"
        payload = {"model": family.name, "sweep": [[t, v] for t, v in rows], "value": label}
        lines = [f"tau,{label}", *(f"{t!r},{v!r}" for t, v in rows)]
        return _report(args, doc, started_at, payload, lines, "fim-sweep.json")
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
    return _report(args, doc, started_at, payload, lines, "fim.json")


def cmd_fit(args, doc, started_at):
    _check_keys(doc, "<root>", required=("model",))
    family, data = load_data_file(args.data, doc["model"])
    _make_out(args)
    result = fit(family, data)
    moment = family.to_moment(result.theta_hat)
    payload = {
        "model": family.name,
        "theta_hat": [float(v) for v in result.theta_hat],
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
        f"theta_hat (natural): {np.array2string(result.theta_hat, precision=10)}",
        f"estimate ({', '.join(family.moment_labels())}): {np.array2string(moment, precision=10)}",
        f"status: {result.status} after {result.iterations} iterations "
        f"(|score|_inf = {result.final_score_norm:.3e})",
        f"log-likelihood: {result.log_likelihood:.10g}",
        f"observed information: {np.array2string(result.observed_information, precision=6)}",
    ]
    return _report(args, doc, started_at, payload, lines, "fit.json")


def cmd_simulate(args, doc, started_at):
    experiments = load_experiments(doc, seed_override=args.seed)
    _make_out(args)
    out_dir, tables = Path(args.out), {}
    for name, config in experiments:
        file_name = f"{name}.csv"
        csv_text = tables[file_name] = montecarlo.run_mse_experiment(config).to_csv()
        print(f"[{name}] model={config.model} trials={config.trials} -> {out_dir / file_name}")
        for line in csv_text.strip().splitlines():
            print("  " + line)
    # written once every experiment has run: a failed run leaves no CSV without a manifest
    print(f"manifest: {_write_run(args, doc, started_at, tables)}")
    return EXIT_OK


def cmd_check_conditions(args, doc, started_at):
    family, theta0, designs = build_model_instance(doc)
    _make_out(args)
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
        f"(1) max sum_j E|T_j|^3 = {report.max_third_abs_moment:.6g} "
        f"... {mark(report.moments_bounded)}",
        f"(2) max ||V||_inf  = {report.max_design_norm:.6g} "
        f"... {mark(report.designs_bounded)}",
        f"(3) avg information min eigenvalue = {report.min_eigenvalue:.6g}, "
        f"det = {report.determinant:.6g}, prefix drift = {report.prefix_drift:.3g} "
        f"... {mark(report.information_positive)}",
        f"overall: {mark(report.passed)}",
    ]
    return _report(args, doc, started_at, payload, lines, "conditions.json")


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
    started_at = _utcnow()
    try:
        code = args.func(args, load_json_config(args.config), started_at)
        sys.stdout.flush()  # in the try, so that a closed stdout is caught
        return code
    except BrokenPipeError:  # the reader has gone: exit quietly, flushing into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as err:
        loc = f" ({err.location})" if err.location else ""
        print(f"config error{loc}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:  # a path that cannot be read or written
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateThreshold, DegenerateLikelihood, NumericalError, DomainError) as err:
        print(f"degenerate model input: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except NonIdentifiable as err:
        print(f"non-identifiable data: {err}", file=sys.stderr)
        return EXIT_NON_IDENTIFIABLE
    except (BitGlmError, ValueError, MemoryError, np.linalg.LinAlgError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
