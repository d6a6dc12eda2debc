"""Results that do not depend on the BLAS thread count.

OpenBLAS splits a long reduction over rows between its threads, and the
split changes the rounding.  Each child process here fits every family, takes
both informations and the uncensored estimate on the same distinct-row data, with
``OPENBLAS_NUM_THREADS`` set to 1 in one and to 2 in the other, and the
bytes must agree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bitglm

BENCH = Path(__file__).resolve().parents[1] / "bench"

CHILD = """
import json, sys
import numpy as np
from bitglm import CensoredDataset, fim_censored, fim_uncensored, fit
from workloads import iid_instance

def hexed(a):
    return np.asarray(a, dtype=float).tobytes().hex()

# a bare BLAS reduction, to tell whether this BLAS splits rows at all
v = np.random.default_rng(0).standard_normal(10**6)
out = {"control": hexed(v.dot(v))}
for name in ("gaussian-case1", "gaussian-case2", "gaussian-case3", "poisson"):
    rng = np.random.default_rng(3)
    fam, designs, theta0 = iid_instance(name, 10**5, rng)
    x = fam.sample(theta0, designs, rng)
    res = fit(fam, CensoredDataset(np.where(x <= designs.taus, 1, -1), designs))
    out[name] = {
        "theta_hat": hexed(res.theta_hat),
        "log_likelihood": hexed(res.log_likelihood),
        "observed_information": hexed(res.observed_information),
        "fim_censored": hexed(fim_censored(fam, theta0, designs).matrix),
        "fim_uncensored": hexed(fim_uncensored(fam, theta0, designs).matrix),
        "uncensored_mle": hexed(fam.uncensored_mle(designs, x)),
    }
json.dump(out, sys.stdout)
"""


def _run(threads):
    src = Path(bitglm.__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(BENCH)])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def test_fits_and_informations_do_not_depend_on_blas_threads():
    one, two = _run(1), _run(2)
    if one.pop("control") == two.pop("control"):
        pytest.skip("this BLAS sums a 10^6-row dot product alike on 1 and 2 threads, "
                    "so the thread count cannot show here")
    differ = [
        f"{name}.{key}" for name in one for key in one[name] if one[name][key] != two[name][key]
    ]
    assert not differ, f"differ between 1 and 2 BLAS threads: {differ}"
