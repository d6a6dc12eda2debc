"""Fit the same random datasets with one or two source trees and compare.

Run from anywhere inside the repository:

    python3 tools/fit_sweep.py /path/to/old/checkout /path/to/new/checkout
    python3 tools/fit_sweep.py --draws 10 .

Each tree is a directory holding ``src/bitglm``.  For every family the
sweep draws ``--draws`` datasets from ``np.random.default_rng(--seed)``,
alternating ``repeated_rows(max_reps=30)`` (even draws) and
``random_instance`` with random bits (odd draws), using the generators in
``tests/conftest.py`` next to this script, so both trees see the same data.
Each tree fits them in its own interpreter, one process at a time.

Prints, per tree and family, the count of each outcome (a ``FitResult``
status, or the name of the error ``fit`` raised) and the total fit time;
then, against the first tree, the outcome transitions, the worst relative
difference of estimates that both trees report converged, the worst
log-likelihood shortfall, (ll_first - ll_other) / |ll_first|, over draws
that both trees fit, and the worst relative difference, max |a - b| over
the larger max |a|, of ``fisher.fim_censored`` and of the score and the
Hessian of ``likelihood.evaluate`` at the draw's own theta, over draws
where both trees return them.  Uses numpy and the trees' own dependencies
only.
"""

import argparse
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
FAMILIES = ("gaussian-case1", "gaussian-case2", "gaussian-case3", "poisson")


def draws(name, count, seed):
    """(index, family, theta, data) of the sweep's datasets for one family."""
    import numpy as np
    from bitglm import CensoredDataset
    from conftest import random_instance, repeated_rows

    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 2 == 0:
            fam, theta, data = repeated_rows(name, rng, max_reps=30)
        else:
            fam, theta, designs = random_instance(name, rng)
            data = CensoredDataset(rng.choice([-1, 1], designs.n), designs)
        yield i, fam, theta, data


def fit_all(count, seed):
    """One record per draw and family, fitted with the bitglm on sys.path."""
    from bitglm import BitGlmError, fim_censored, fit, likelihood

    records = []
    for name in FAMILIES:
        for i, fam, theta0, data in draws(name, count, seed):
            at_theta = {}
            try:
                at_theta["fim"] = fim_censored(fam, theta0, data.designs).matrix.tolist()
            except BitGlmError:
                pass
            try:
                _, g, h = likelihood.evaluate(fam, theta0, data)
                at_theta.update(score=g.tolist(), hessian=h.tolist())
            except BitGlmError:
                pass
            start = time.perf_counter()
            try:
                res = fit(fam, data)
            except BitGlmError as err:
                outcome, theta, ll = type(err).__name__, None, None
            else:
                outcome, theta, ll = res.status, res.theta_hat.values.tolist(), res.log_likelihood
            records.append({
                "family": name, "draw": i, "outcome": outcome, "theta": theta, "ll": ll,
                "seconds": time.perf_counter() - start, **at_theta,
            })
    return records


def run_tree(tree, count, seed):
    src = Path(tree).resolve() / "src"
    if not (src / "bitglm").is_dir():
        sys.exit(f"{tree}: no src/bitglm")
    out = subprocess.run(
        [sys.executable, __file__, "--worker", src, "--draws", str(count), "--seed", str(seed)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _rel_array(a, b):
    import numpy as np

    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300))


def report(trees, results):
    first = results[0]
    for tree, records in zip(trees, results):
        print(f"== {tree}")
        for name in FAMILIES:
            mine = [r for r in records if r["family"] == name]
            counts = Counter(r["outcome"] for r in mine)
            seconds = sum(r["seconds"] for r in mine)
            listed = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
            print(f"  {name:15s} {seconds:7.2f} s  {listed}")
        print(f"  total fit time {sum(r['seconds'] for r in records):.2f} s")
    for tree, records in zip(trees[1:], results[1:]):
        print(f"== {trees[0]} -> {tree}")
        for name in FAMILIES:
            pairs = [(a, b) for a, b in zip(first, records) if a["family"] == name]
            moves = {}  # (outcome in the first tree, in this one) -> draws
            for a, b in pairs:
                if a["outcome"] != b["outcome"]:
                    moves.setdefault((a["outcome"], b["outcome"]), []).append(a["draw"])
            est = [
                max(_rel(x, y) for x, y in zip(a["theta"], b["theta"]))
                for a, b in pairs
                if a["outcome"] == b["outcome"] == "converged"
            ]
            short = [
                ((a["ll"] - b["ll"]) / max(abs(a["ll"]), 1e-300), a["draw"])
                for a, b in pairs
                if a["ll"] is not None and b["ll"] is not None
            ]
            worst = max(short, default=(0.0, None))
            print(f"  {name}:")
            for (was, now), which in sorted(moves.items()):
                shown = ", ".join(map(str, which[:5])) + (", ..." if len(which) > 5 else "")
                print(f"    {was} -> {now}: {len(which)} (draws {shown})")
            worst_est = max(est, default=0.0)
            print(f"    worst relative estimate difference (both converged): {worst_est:.3g}")
            print(f"    worst log-likelihood shortfall: {worst[0]:.3g} (draw {worst[1]})")
            for key in ("fim", "score", "hessian"):
                diffs = [(_rel_array(a[key], b[key]), a["draw"])
                         for a, b in pairs if key in a and key in b]
                worst = max(diffs, default=(0.0, None))
                print(f"    worst relative {key} difference at theta: {worst[0]:.3g}"
                      f" (draw {worst[1]})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", help="one or two directories holding src/bitglm")
    parser.add_argument("--draws", type=int, default=1500, help="datasets per family")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path[:0] = [args.worker, str(TESTS)]
        json.dump(fit_all(args.draws, args.seed), sys.stdout)
        return
    if not 1 <= len(args.trees) <= 2:
        parser.error("give one or two trees")
    results = [run_tree(tree, args.draws, args.seed) for tree in args.trees]
    report(args.trees, results)


if __name__ == "__main__":
    main()
