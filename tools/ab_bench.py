"""A/B benchmark of a change against its parent commit; writes BENCH_<label>.json.

Run from anywhere inside the repository:

    python3 tools/ab_bench.py --label probit_start --workload fig1-mixtures \
        --workload info-sweep --seeds 31-40 --about "what the change does"

Each side is a fresh copy of ``src/`` and ``bench/``: the parent is
extracted from ``--parent`` (default ``HEAD``) with ``git archive``, and the
change is copied from the working tree.  To measure a committed change, check
it out and pass its parent, e.g. ``--parent HEAD~1``; the script exits with
an error when the two sides' ``src/`` and ``bench/`` are the same.  For every workload and seed
the script runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once on each side, one process at a time, alternating which side goes first
(parent first on odd seeds).  It then reports, per workload and end-to-end
metric, the median and quartiles of each side (``statistics.quantiles``,
n=4), in how many pairs the change read better, the ratio of the medians,
the parent's interquartile range and a verdict (see ``verdict``) against
the metric's bound in ``BENCHMARK.json``.  With ``--trace-seed`` it also runs
each workload once per side with ``--trace 1 --seconds 10`` and records the
per-layer metrics.  Uses the standard library only.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

#: What each side needs to run the benchmark.
TREES = ("src", "bench")
#: Per-run timeout, far above what one run with its reference replay and
#: set-up probes takes (under a minute at --seconds 40 on a 2-vCPU machine).
RUN_TIMEOUT_S = 1800


def repo_root():
    out = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True
    )
    return Path(out.stdout.strip())


def extract(root, rev, dest):
    """Write ``src/`` and ``bench/`` of commit ``rev`` into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev, *TREES], cwd=root, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def copy_worktree(root, dest):
    """Copy ``src/`` and ``bench/`` of the working tree, without caches or results."""
    ignore = shutil.ignore_patterns("__pycache__", "results", "*.pyc")
    for tree in TREES:
        shutil.copytree(root / tree, dest / tree, ignore=ignore)


def parse_seeds(text):
    """'31-40' or '3,5,8' to a list of ints."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_bench(side_dir, workload, seed, seconds, trace):
    """One bench/run.py run; (record, machine facts)."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=side_dir, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    machine = next(
        (json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), {}
    )
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    record = {"seed": seed, "exit": proc.returncode, "correct": bool(result.get("correct"))}
    record.update({k: v["value"] for k, v in result.get("metrics", {}).items()})
    if proc.returncode != 0:
        record["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return record, machine


#: Share of the pairs a change must read better in for a gain.
GAIN_WIN_SHARE = 0.9


def verdict(parent, change, wins, pairs, higher, bound):
    """One metric's verdict from each side's values over ``pairs`` pairs.

    "gain": the change reads better in at least 9 of 10 pairs and its
    median is better than the parent's by more than the parent's IQR.
    "regression": the change's median is worse than the parent's by more
    than ``bound``, relative to the parent's median.  "unresolved": the
    parent's IQR exceeds that bound and not every change run beats every
    parent run.  Otherwise "no regression".
    """
    q1, parent_median, q3 = statistics.quantiles(parent, n=4)
    change_median = statistics.median(change)
    sign = 1.0 if higher else -1.0
    better_by = sign * (change_median - parent_median)
    allowed = bound * abs(parent_median)
    if wins >= GAIN_WIN_SHARE * pairs and better_by > q3 - q1:
        return "gain"
    if better_by < -allowed:
        return "regression"
    beats_all = (min(change) > max(parent)) if higher else (max(change) < min(parent))
    if q3 - q1 > allowed and not beats_all:
        return "unresolved"
    return "no regression"


def summarize(runs, metrics):
    """Per metric: each side's median and quartiles, wins, ratio, parent
    IQR and verdict."""
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r
    pairs = [p for p in by_seed.values() if "parent" in p and "change" in p]
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        sides, values = {}, {}
        for side in ("parent", "change"):
            values[side] = [p[side][name] for p in pairs if name in p[side]]
            if len(values[side]) < 2:
                break
            q1, median, q3 = statistics.quantiles(values[side], n=4)
            sides[side] = {"median": median, "q1": q1, "q3": q3}
        if len(sides) < 2:
            continue
        wins = sum(
            1
            for p in pairs
            if name in p["parent"] and name in p["change"]
            and (p["change"][name] > p["parent"][name] if higher
                 else p["change"][name] < p["parent"][name])
        )
        parent_median = sides["parent"]["median"]
        out[name] = {
            **sides,
            "change_wins": f"{wins}/{len(pairs)}",
            "ratio_change_over_parent": (
                sides["change"]["median"] / parent_median if parent_median else None
            ),
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
            "verdict": verdict(
                values["parent"], values["change"], wins, len(pairs), higher, m["bound"]
            ),
        }
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True, help="output file is BENCH_<label>.json")
    p.add_argument("--workload", action="append", required=True, dest="workloads")
    p.add_argument("--seeds", default="11-20", help="'lo-hi' or a comma list (default 11-20)")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    p.add_argument("--trace-seed", type=int, default=None,
                   help="also run --trace 1 --seconds 10 at this seed on each side")
    p.add_argument("--about", default="", help="one-paragraph description of the change")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = repo_root()
    seeds = parse_seeds(args.seeds)
    bench_spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out_path = root / f"BENCH_{args.label}.json"
    parent = subprocess.run(
        ["git", "rev-parse", args.parent], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", parent, "--", *TREES], cwd=root).returncode == 0:
        sys.exit(f"the working tree's {' and '.join(TREES)} match {args.parent}: nothing to compare")

    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        extract(root, parent, dirs["parent"])
        copy_worktree(root, dirs["change"])

        machine = {}
        runs = {w: [] for w in args.workloads}
        for workload in args.workloads:
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    t0 = time.perf_counter()
                    record, facts = run_bench(dirs[side], workload, seed, args.seconds, 0)
                    machine = machine or facts
                    runs[workload].append({"side": side, **record})
                    print(
                        f"{workload} seed {seed} {side:6s} exit {record['exit']} "
                        f"ops_per_s {record.get('ops_per_s', float('nan')):.1f} "
                        f"({time.perf_counter() - t0:.0f} s)",
                        flush=True,
                    )

        per_layer = {}
        if args.trace_seed is not None:
            for workload in args.workloads:
                per_layer[workload] = {}
                for side in ("parent", "change"):
                    record, _ = run_bench(dirs[side], workload, args.trace_seed, 10, 1)
                    per_layer[workload][side] = record

    doc = {
        "about": args.about,
        "machine": machine,
        "method": {
            "end_to_end": (
                f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                "--trace 0, run in fresh copies of src/ and bench/ of the parent "
                f"({parent[:12]}) and of the change (working tree), one process "
                "at a time, alternating which side runs first (odd seeds parent first), "
                f"seeds {args.seeds} ({len(seeds)} pairs per workload); median and quartiles "
                "(statistics.quantiles, n=4); change_wins counts pairs in which the change "
                "read better; parent_iqr is q3 - q1 of the parent's runs; verdict is "
                "tools/ab_bench.py verdict() against the metric's BENCHMARK.json bound"
            ),
            "script": "tools/ab_bench.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        },
        "end_to_end": {w: summarize(runs[w], bench_spec["end_to_end"]) for w in args.workloads},
        "runs": runs,
    }
    if per_layer:
        doc["method"]["per_layer"] = (
            f"python3 bench/run.py --workload W --seed {args.trace_seed} --seconds 10 "
            "--trace 1 on each side"
        )
        doc["per_layer"] = per_layer
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    bad = [r for rs in runs.values() for r in rs if r["exit"] != 0 or not r["correct"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
