"""Time the stages of one censored fig1 trial, and grouping and fitting distinct rows.

Run from anywhere inside the repository:

    python3 tools/trial_stages.py
    PYTHONPATH=/path/to/other/checkout/src python3 tools/trial_stages.py

For every sample size of ``configs/fig1.cfg`` the script replays trials
0 .. ``--trials``-1 of its first censored curve with the calls that
``montecarlo.run_trial`` makes, so that the stages sum to one trial, running
each stage ``--repeat`` times from the trial's own substream: the design
draw (``family_and_theta``), the sampling and censoring
(``generate_and_censor``), the fit of the raw rows (``fit``, which groups
them) and the squared error.  It prints, per n and stage, the median over
trials of each trial's best time, in microseconds, and beside it the median
over trials of each trial's median count of minor page faults
(``resource.getrusage``: pages mapped at their first touch, such as those
that the allocator returned to the system and takes back).  It then prints
the best times of ``grouped()``, of ``fit`` (grouping included) and of
``fisher.dpi_check`` at the true parameter on ``bench/workloads.iid_instance``
data, where no two rows share a design, at n = ``--iid-n`` for every family,
and beside ``dpi_check`` its special-function floor on the same rows: the
one call per row that the censored information cannot do without
(``special_floor``), and the share of ``dpi_check`` spent beyond it.
Uses the standard library, numpy and the bitglm of this checkout, or of
the checkout whose ``src`` is on ``PYTHONPATH`` (one whose ``grouped()``
returns the rows with their tally).
"""

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which may name another tree

from scipy import special  # noqa: E402

from bitglm import CensoredDataset, _gauss, _poisson, cli, fisher, fit, montecarlo  # noqa: E402

FIG1 = Path(cli.__file__).parent / "configs" / "fig1.cfg"
STAGES = ("design draw", "sample and censor", "fit", "squared error")


def _mark():
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def trial_stages(config, n, trial):
    """(seconds, minor page faults) of each stage of one censored trial, in
    ``STAGES`` order."""
    marks = [_mark()]
    rng = montecarlo._substream(config.seed, n, trial)
    family, designs, theta0 = montecarlo.family_and_theta(config, n, rng)
    marks.append(_mark())
    data = montecarlo.generate_and_censor(family, theta0, designs, rng)
    marks.append(_mark())
    result = fit(family, data)
    marks.append(_mark())
    montecarlo._squared_error(family, result.theta_hat, theta0, config.error_metric)
    marks.append(_mark())
    return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(marks, marks[1:])]


def special_floor(family, theta, designs):
    """A function that makes the special-function calls the censored
    information of ``designs`` needs at ``theta``, on arguments gathered
    beforehand: for a Gaussian family erfcx at |z| / sqrt 2 for the index z,
    for Poisson the far tail of each row (``_poisson`` module docstring),
    scipy's incomplete gamma or the summed left tail, each in the order in
    which the library evaluates it."""
    X, offset = family.index_regressors(designs)
    z = offset + X.dot(family.index_from_theta(family.check_theta(theta)))
    # the kernels' ordered evaluation (``bitglm._order``), or scipy's plain
    # call for a checkout that evaluates in row order
    if family.name != "poisson":
        a = np.abs(z) / np.sqrt(2.0)
        erfcx = getattr(_gauss, "erfcx", special.erfcx)
        return lambda: erfcx(a)
    lam, t = np.exp(-z), np.floor(designs.taus)
    right = t + 1 > lam
    small = lam < _poisson.SUM_BELOW_RATE
    routes = [
        (tail, t[rows], lam[rows])
        for rows, tail in (
            (right, getattr(_poisson, "pdtrc", special.pdtrc)),
            (~right & ~small, getattr(_poisson, "pdtr", special.pdtr)),
            (~right & small, _poisson._left_tail_sum),
        )
        if rows.any()
    ]
    return lambda: [tail(ti, li) for tail, ti, li in routes]


def best_of(repeat, run):
    """Per-entry minimum of ``repeat`` calls of ``run`` (a list of seconds)."""
    return [min(column) for column in zip(*(run() for _ in range(repeat)))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trials", type=int, default=10, help="trials per sample size")
    parser.add_argument("--repeat", type=int, default=5, help="timings per trial and stage")
    parser.add_argument("--iid-n", type=int, default=100_000, help="rows of the distinct-row data")
    args = parser.parse_args(argv)

    name, config = next(
        (name, c) for name, c in cli.load_experiments(cli.load_json_config(FIG1))
        if c.estimator == "censored"
    )
    print(
        f"fig1 curve {name}: median over {args.trials} trials of the best of {args.repeat}, us,"
        " and of the median minor page faults"
    )
    print(f"  {'n':>6s}" + "".join(f"  {s:>17s}" for s in (*STAGES, "total")))
    for n in config.sample_sizes:
        runs = [
            [trial_stages(config, n, t) for _ in range(args.repeat)] for t in range(args.trials)
        ]
        times = [
            1e6 * statistics.median(min(run[i][0] for run in trial) for trial in runs)
            for i in range(len(STAGES))
        ]
        faults = [
            statistics.median_low(
                statistics.median_low(run[i][1] for run in trial) for trial in runs
            )
            for i in range(len(STAGES))
        ]
        cells = [*zip(times, faults), (sum(times), sum(faults))]
        print(f"  {n:6d}" + "".join(f"  {t:10.1f} {f:6d}" for t, f in cells))

    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    print(
        f"grouped(), fit, dpi_check and its special-function floor at theta0 on iid_instance"
        f" rows, n = {args.iid_n}, best of {args.repeat}, ms; dpi_check's share beyond the floor"
    )
    for family_name in workloads.FAMILIES:
        family, designs, theta0 = workloads.iid_instance(
            family_name, args.iid_n, np.random.default_rng(1)
        )
        x = family.sample(theta0, designs, np.random.default_rng(2))
        data = CensoredDataset(np.where(x <= designs.taus, 1, -1), designs)

        floor = special_floor(family, theta0, designs)

        def group_fit_and_check():
            clock = [time.perf_counter()]
            data.grouped()
            clock.append(time.perf_counter())
            fit(family, data)
            clock.append(time.perf_counter())
            fisher.dpi_check(family, theta0, designs)
            clock.append(time.perf_counter())
            floor()
            clock.append(time.perf_counter())
            return [b - a for a, b in zip(clock, clock[1:])]

        times = best_of(args.repeat, group_fit_and_check)
        share = 1.0 - times[3] / times[2]
        print(
            f"  {family_name:15s}" + "".join(f" {1e3 * t:8.2f}" for t in times)
            + f" {100.0 * share:5.1f}%"
        )


if __name__ == "__main__":
    main()
