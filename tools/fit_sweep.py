"""Fit the same random datasets with one or two source trees and compare.

Run from anywhere inside the repository:

    python3 tools/fit_sweep.py /path/to/old/checkout /path/to/new/checkout
    python3 tools/fit_sweep.py --draws 10 .

Each tree is a directory holding ``src/bitglm``.  For every family the
sweep draws ``--draws`` datasets from ``np.random.default_rng(--seed)``,
alternating ``repeated_rows(max_reps=30)`` (even draws) and
``random_instance`` with random bits (odd draws), using the generators in
``tests/conftest.py`` next to this script, so both trees see the same data.
Each tree fits in one worker interpreter, and the workers take turns draw
by draw: each draw is fitted in ``ROUNDS`` rounds, one fit per tree in
each, a millisecond or so apart, so that a slow spell of the machine falls
on both trees alike.  Every round must give the draw the same outcome; its
fit time is its fastest round's, and a family's is the sum over its draws.

Prints, per tree and family, the count of each outcome (a ``FitResult``
status, or the name of the error ``fit`` raised) and the fit time, and
per status the total and the largest ``FitResult.iterations`` and the
total fit time; then, against the first tree, the outcome transitions,
the worst difference of estimates that both trees report converged, and
of those that both report boundary-divergence, |a - b| over
max(|a|, |b|, 1) per coordinate, the worst log-likelihood shortfall,
(ll_first - ll_other) / |ll_first|, over draws that both trees fit, and
the worst relative difference, max |a - b| over the larger max |a|, of
``fisher.fim_censored`` (``fim``),
``fisher.fim_uncensored`` and the score and the Hessian of
``likelihood.evaluate`` at the draw's own theta, over draws where both
trees return them.  Each draw also feeds the family's uncensored baseline:
``fam.sample`` at the draw's theta, seeded by the draw index, then
``uncensored_mle``, whose outcome (an estimate, or the error's name)
transitions and worst estimate difference, floored at 1 like the fit's,
are printed the same way.  Uses numpy and the trees' own dependencies
only.
"""

import argparse
import contextlib
import json
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1] / "tests"
FAMILIES = ("gaussian-case1", "gaussian-case2", "gaussian-case3", "poisson")
#: Fits of every draw per tree; a draw's fit time is its fastest round's.
ROUNDS = 3


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


def record(name, i, fam, theta0, data):
    """The record of draw ``i`` of family ``name``, fitted with the bitglm on sys.path."""
    import numpy as np
    from bitglm import BitGlmError, fim_censored, fim_uncensored, fit, likelihood

    at_theta = {}
    try:
        at_theta["fim"] = fim_censored(fam, theta0, data.designs).matrix.tolist()
    except BitGlmError:
        pass
    try:
        info = fim_uncensored(fam, theta0, data.designs)
        at_theta["fim_uncensored"] = info.matrix.tolist()
    except BitGlmError:
        pass
    try:
        _, g, h = likelihood.evaluate(fam, theta0, data)
        at_theta.update(score=g.tolist(), hessian=h.tolist())
    except BitGlmError:
        pass
    try:
        x = fam.sample(theta0, data.designs, np.random.default_rng(i))
        at_theta["mle"] = fam.uncensored_mle(data.designs, x).tolist()
        at_theta["mle_outcome"] = "estimate"
    except BitGlmError as err:
        at_theta["mle_outcome"] = type(err).__name__
    start = time.perf_counter()
    try:
        res = fit(fam, data)
    except BitGlmError as err:
        outcome, theta, ll, iterations = type(err).__name__, None, None, None
    else:
        theta = res.theta_hat.tolist()
        outcome, ll, iterations = res.status, res.log_likelihood, res.iterations
    return {
        "family": name, "draw": i, "outcome": outcome, "theta": theta, "ll": ll,
        "iterations": iterations, "seconds": time.perf_counter() - start, **at_theta,
    }


def serve(count, seed):
    """Answer each line "family draw" on stdin with that draw's record, one
    JSON line on stdout, until stdin closes."""
    drawn = {name: list(draws(name, count, seed)) for name in FAMILIES}
    for line in sys.stdin:
        name, i = line.split()
        print(json.dumps(record(name, *drawn[name][int(i)])), flush=True)


@contextlib.contextmanager
def worker(src, count, seed):
    """A function (family, draw) -> that draw's record, answered by one
    fresh interpreter on ``src`` while the context lasts."""
    with subprocess.Popen(
        [sys.executable, __file__, "--worker", str(src), "--draws", str(count),
         "--seed", str(seed)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as proc:
        def ask(name, i):
            proc.stdin.write(f"{name} {i}\n")
            proc.stdin.flush()
            line = proc.stdout.readline()
            if not line:
                sys.exit(f"{src}: the worker stopped")
            return json.loads(line)

        yield ask


def run_trees(trees, count, seed):
    """Per tree, one record per family and draw, in that order: each draw is
    fitted in ROUNDS rounds, the trees' workers taking turns in each, and
    keeps its fastest round's record; exits where a draw's rounds give it
    different outcomes."""
    srcs = [Path(tree).resolve() / "src" for tree in trees]
    for tree, src in zip(trees, srcs):
        if not (src / "bitglm").is_dir():
            sys.exit(f"{tree}: no src/bitglm")
    results = [[] for _ in trees]
    with contextlib.ExitStack() as stack:
        asks = [stack.enter_context(worker(src, count, seed)) for src in srcs]
        for name in FAMILIES:
            for i in range(count):
                rounds = [[ask(name, i) for ask in asks] for _ in range(ROUNDS)]
                for tree, records, mine in zip(trees, results, zip(*rounds)):
                    if len({r["outcome"] for r in mine}) > 1:
                        sys.exit(f"{tree}: {name} draw {i} changes outcome between rounds")
                    records.append(min(mine, key=lambda r: r["seconds"]))
    return results


def _rel(a, b):
    """|a - b| of two estimates, relative above 1 and absolute below, so two
    that both round to 0 read their difference, not 1."""
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def _rel_array(a, b, floor=1e-300):
    import numpy as np

    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)), floor))


def _print_transitions(pairs, key, label=""):
    """One line per (outcome in the first tree, in the other) that differs."""
    moves = {}
    for a, b in pairs:
        if a[key] != b[key]:
            moves.setdefault((a[key], b[key]), []).append(a["draw"])
    for (was, now), which in sorted(moves.items()):
        shown = ", ".join(map(str, which[:5])) + (", ..." if len(which) > 5 else "")
        print(f"    {label}{was} -> {now}: {len(which)} (draws {shown})")


def report(trees, results):
    first = results[0]
    for tree, records in zip(trees, results):
        print(f"== {tree} (fit times: each draw's best of {ROUNDS} rounds)")
        for name in FAMILIES:
            mine = [r for r in records if r["family"] == name]
            counts = Counter(r["outcome"] for r in mine)
            seconds = sum(r["seconds"] for r in mine)
            listed = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
            print(f"  {name:15s} {seconds:7.2f} s  {listed}")
            iterations, times = {}, Counter()
            for r in mine:
                times[r["outcome"]] += r["seconds"]
                if r["iterations"] is not None:
                    iterations.setdefault(r["outcome"], []).append(r["iterations"])
            listed = ", ".join(
                f"{k} {sum(v)} (max {max(v)})" for k, v in sorted(iterations.items())
            )
            print(f"    newton iterations: {listed}")
            print("    fit time: " + ", ".join(f"{k} {v:.3f} s" for k, v in sorted(times.items())))
        print(f"  total fit time {sum(r['seconds'] for r in records):.2f} s")
    for tree, records in zip(trees[1:], results[1:]):
        print(f"== {trees[0]} -> {tree}")
        for name in FAMILIES:
            pairs = [(a, b) for a, b in zip(first, records) if a["family"] == name]
            short = [
                ((a["ll"] - b["ll"]) / max(abs(a["ll"]), 1e-300), a["draw"])
                for a, b in pairs
                if a["ll"] is not None and b["ll"] is not None
            ]
            worst = max(short, default=(0.0, None))
            print(f"  {name}:")
            _print_transitions(pairs, "outcome")
            for status in ("converged", "boundary-divergence"):
                est = [
                    max(_rel(x, y) for x, y in zip(a["theta"], b["theta"]))
                    for a, b in pairs
                    if a["outcome"] == b["outcome"] == status
                ]
                worst_est = max(est, default=0.0)
                print(f"    worst relative estimate difference (both {status}): {worst_est:.3g}")
            print(f"    worst log-likelihood shortfall: {worst[0]:.3g} (draw {worst[1]})")
            for key in ("fim", "fim_uncensored", "score", "hessian"):
                diffs = [(_rel_array(a[key], b[key]), a["draw"])
                         for a, b in pairs if key in a and key in b]
                worst = max(diffs, default=(0.0, None))
                print(f"    worst relative {key} difference at theta: {worst[0]:.3g}"
                      f" (draw {worst[1]})")
            _print_transitions(pairs, "mle_outcome", "uncensored_mle ")
            diffs = [(_rel_array(a["mle"], b["mle"], 1.0), a["draw"])
                     for a, b in pairs if "mle" in a and "mle" in b]
            worst = max(diffs, default=(0.0, None))
            print(f"    worst relative uncensored_mle difference: {worst[0]:.3g} (draw {worst[1]})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="*", help="one or two directories holding src/bitglm")
    parser.add_argument("--draws", type=int, default=1500, help="datasets per family")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.path[:0] = [args.worker, str(TESTS)]
        serve(args.draws, args.seed)
        return
    if not 1 <= len(args.trees) <= 2:
        parser.error("give one or two trees")
    report(args.trees, run_trees(args.trees, args.draws, args.seed))


if __name__ == "__main__":
    main()
