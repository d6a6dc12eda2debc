"""bitglm benchmark: one workload per run, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload fig1-mixtures --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --record-reference

A run sets bitglm up in this process (import plus the workload's inputs),
replays the workload's fixed reference batch as warm-up and compares it
with ``bench/reference/<workload>.json``, then times a fixed set of rounds
sized from ``--seconds``.  With ``--trace 0`` it runs them PASSES times,
each op keeping its fastest time, and reports the end-to-end metrics; with
``--trace 1`` it runs each round once untraced and once traced, and
reports per-layer metrics from the spans.  Set-up is then repeated in
fresh interpreters and its median reported.  Details, machine
facts and spans go to ``bench/results/``; the last line of standard output
is the JSON result.  The exit code is 1 when any output check fails and 2
when the program is missing.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_DIR = BENCH_DIR / "reference"
RESULTS_DIR = BENCH_DIR / "results"

#: Fresh-interpreter set-ups per run (this process plus probes); median reported.
SETUP_SAMPLES = 5
#: Seconds one round takes on a 2-vCPU Xeon (family 6, model 207) at the commit
#: that added this benchmark.  It turns --seconds into a number of rounds,
#: so that one seed always gives the same ops and the same counts.
ROUND_SECONDS = {"fig1-mixtures": 0.16, "info-sweep": 0.1}
#: Passes over the same ops in one run; each op keeps its fastest.  A
#: shared 2-CPU cloud machine runs up to 1.5x slower for spells of seconds
#: to minutes while a neighbour loads the core; passes seconds apart let
#: most ops find a quiet spell unless the whole run falls in one.
PASSES = 10
#: Relative tolerance of reference comparisons, against max(1, max |value|).
#: Estimates are converged to a score below 1e-9, so any summation order
#: agrees to ~1e-12; a wrong estimate is off by its sampling error, >= 1e-3.
#: Information matrices are closed forms and agree to rounding.
REFERENCE_RTOL = {"fig1-mixtures": 1e-6, "info-sweep": 1e-9}


def setup(workload, seed):
    """Import the program and build the workload's inputs, timing both."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import bitglm  # noqa: F401
    import bitglm.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[workload](seed)
    t2 = time.perf_counter()
    return w, t1 - t0, t2 - t1


def probe_setups(workload, seed, count):
    """(import_s, inputs_s) from ``count`` fresh interpreters, one at a time."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((sample["import_s"], sample["inputs_s"]))
    return out


# ---------------------------------------------------------------------------
# Machine facts
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _blas_threads():
    """Thread count of every OpenBLAS the process has loaded."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def machine_facts(loadavg):
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "loadavg_start": loadavg,
    }


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def run_op(key, op):
    """(latency_s, outcome or None); an unexpected exception is reported."""
    t = time.perf_counter()
    try:
        out = op()
    except Exception:
        dt = time.perf_counter() - t
        print(f"op {key} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return dt, None
    return time.perf_counter() - t, out


def rounds_for(w, seconds):
    """Whole cycles of rounds that take ``seconds`` at the commit that added
    this benchmark."""
    cycles = max(1, round(seconds / (ROUND_SECONDS[w.name] * w.cycle)))
    return cycles * w.cycle


def run_rounds(w, rounds):
    latencies, outcomes = [], []
    for r in rounds:
        for key, op in w.round(r):
            dt, out = run_op(key, op)
            latencies.append(dt)
            outcomes.append((key, out))
    return latencies, outcomes


def run_passes(w, rounds):
    """Run the same rounds PASSES times; each op keeps its fastest latency.
    Replays must reproduce the first pass's outputs bit for bit."""
    best, outcomes = run_rounds(w, range(rounds))
    problems = []
    for _ in range(PASSES - 1):
        latencies, again = run_rounds(w, range(rounds))
        best = [min(a, b) for a, b in zip(best, latencies)]
        problems += replay_differences(outcomes, again)
    return best, outcomes, problems


def replay_differences(first, again):
    return [
        f"{key}: replay gave {out.status} {out.values}, first run {ref.status} {ref.values}"
        for (key, ref), (_, out) in zip(first, again)
        if ref and out and (ref.status, ref.values) != (out.status, out.values)
    ]


def check_reference(w, reference, rtol):
    """Replay the reference batch; list every difference.  A trial that
    converges in both runs must agree; one that converged in the reference
    must still converge."""
    problems = []
    ops = w.reference_ops()
    if set(key for key, _ in ops) != set(reference["ops"]):
        return ["reference batch keys differ from the recorded ones"]
    for key, op in ops:
        _, out = run_op(key, op)
        ref = reference["ops"][key]
        if out is None:
            problems.append(f"{key}: raised (reference {ref['status']})")
        elif ref["ok"] and not out.ok:
            problems.append(f"{key}: reference {ref['status']}, now {out.status}")
        elif ref["ok"] and out.ok:
            scale = max([1.0] + [abs(v) for v in ref["values"]])
            if len(out.values) != len(ref["values"]) or not all(
                abs(a - b) <= rtol * scale for a, b in zip(out.values, ref["values"])
            ):
                problems.append(f"{key}: {out.values} differs from reference {ref['values']}")
    return problems


def check_outcomes(w, outcomes, reference):
    problems = []
    for key, out in outcomes:
        if out is None:
            problems.append(f"{key}: raised")
            continue
        msg = w.plausible(key, out, reference)
        if msg:
            problems.append(f"{key}: {msg}")
    return problems


def percentile_ms(latencies, q):
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def peak_rss_mb():
    """Peak RSS of this process plus the largest child it has waited for."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def end_to_end(w, rounds, latencies, outcomes, setup_samples, rss_mb):
    """The six end-to-end metrics.  Throughput is that of the median cycle,
    so that a rare op costing 50x the others (a stalled fit) shows in
    ok_frac and the tail, not as seed-to-seed noise in ops_per_s."""
    ok = sum(1 for _, out in outcomes if out is not None and out.ok)
    per_cycle = len(latencies) * w.cycle // rounds
    cycles = [sum(latencies[i:i + per_cycle]) for i in range(0, len(latencies), per_cycle)]
    return {
        "ops_per_s": (per_cycle / statistics.median(cycles), "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_p90": (percentile_ms(latencies, 90), "ms"),
        "ok_frac": (ok / len(outcomes), "1"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(a + b for a, b in setup_samples), "s"),
    }


def traced(w, seconds):
    """Each of a fixed number of rounds runs once untraced and once traced,
    in alternating order so that drift and warm data favour neither; gives
    the per-layer metrics and the tracing overhead."""
    import tracing

    rounds = rounds_for(w, seconds / 2)
    tracer = tracing.Tracer()
    plain, traced_lat, outcomes = [], [], []
    for r in range(rounds):
        for tracing_on in ((False, True) if r % 2 == 0 else (True, False)):
            if tracing_on:
                tracer.install()
            try:
                for key, op in w.round(r):
                    dt, out = run_op(key, op)
                    (traced_lat if tracing_on else plain).append(dt)
                    if tracing_on:
                        outcomes.append((key, out))
            finally:
                tracer.remove()
    layers = tracer.layer_metrics()
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    accounting = {
        "rounds": rounds,
        "untraced_op_s": sum(plain),
        "traced_op_s": sum(traced_lat),
        "self_s_total": self_total,
        "self_over_untraced": self_total / sum(plain),
    }
    layers["trace.overhead_frac"] = sum(traced_lat) / sum(plain) - 1.0
    return tracer, layers, accounting, outcomes


def layer_units(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "1"
    return "count"


# ---------------------------------------------------------------------------
# Reference recording
# ---------------------------------------------------------------------------

def record_reference():
    """Rewrite bench/reference/<workload>.json from the program as it is."""
    sys.path.insert(0, str(SRC))
    import workloads

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        w = cls(0)
        ops = {}
        nse = {}
        for key, op in w.reference_ops():
            out = op()
            ops[key] = {"status": out.status, "ok": out.ok, "values": out.values}
            if out.ok and "squared_error" in out.detail:
                curve = key.split("/")[0]
                nse.setdefault(curve, []).append(out.detail["n"] * out.detail["squared_error"])
        doc = {
            "workload": name,
            "reference_seed": workloads.REFERENCE_SEED,
            "nse_scale": {curve: statistics.fmean(v) for curve, v in nse.items()},
            "ops": ops,
        }
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}: {len(ops)} ops, {dict(Counter(o['status'] for o in ops.values()))}")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite the reference outputs from the current program")
    args = p.parse_args(argv)
    if not args.record_reference and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None):
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "bitglm" / "__init__.py").is_file():
        print(f"bitglm sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0

    w, import_s, inputs_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
        return 0

    facts = machine_facts(loadavg)
    reference = json.loads((REFERENCE_DIR / f"{args.workload}.json").read_text(encoding="utf-8"))
    problems = check_reference(w, reference, REFERENCE_RTOL[args.workload])

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "seed": args.seed, "machine": facts}
    if args.trace:
        tracer, values, accounting, outcomes = traced(w, args.seconds)
        tracer.write(RESULTS_DIR / f"{stem}-spans.json")
        details["self_time_accounting"] = accounting
    else:
        rounds = rounds_for(w, args.seconds / PASSES)
        latencies, outcomes, replay_problems = run_passes(w, rounds)
        problems += replay_problems
        details.update(rounds=rounds, passes=PASSES, ops=len(latencies))
    problems += check_outcomes(w, outcomes, reference)

    # read before the set-up probes start, so that the children's peak RSS
    # is only ever that of processes the program itself starts
    rss_mb = peak_rss_mb()
    samples = [(import_s, inputs_s)] + probe_setups(args.workload, args.seed, SETUP_SAMPLES - 1)
    if args.trace:
        values["setup.import_s"] = statistics.median(a for a, _ in samples)
        values["setup.inputs_s"] = statistics.median(b for _, b in samples)
        metrics = {k: (v, layer_units(k)) for k, v in values.items()}
    else:
        metrics = end_to_end(w, rounds, latencies, outcomes, samples, rss_mb)

    status = Counter(out.status if out else "exception" for _, out in outcomes)
    failed = sum(1 for _, out in outcomes if out is None)
    details.update(
        setup_samples=samples, status=dict(status), problems=problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(facts))
    print(f"op status counts: {dict(status)}")
    if args.trace:
        print("self-time accounting: " + json.dumps(accounting))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    for msg in problems:
        print(f"MISMATCH {msg}", file=sys.stderr)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
