"""The trial stage timer, at one trial and one timing per stage."""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import trial_stages  # noqa: E402


def test_one_trial_per_size(capsys):
    trial_stages.main(["--trials", "1", "--repeat", "1", "--iid-n", "1000"])
    lines = capsys.readouterr().out.splitlines()
    # a header, a column line and one row per fig1 sample size
    rows = lines[2:7]
    assert [int(row.split()[0]) for row in rows] == [1000, 1778, 3162, 5623, 10000]
    for row in rows:
        # per stage and in total, a time in us and a count of minor page faults
        values = row.split()[1:]
        assert len(values) == 2 * (len(trial_stages.STAGES) + 1)
        times, faults = [float(v) for v in values[0::2]], [int(v) for v in values[1::2]]
        assert min(times) > 0.0 and min(faults) >= 0
        assert abs(sum(times[:-1]) - times[-1]) < 0.3  # each printed to 0.1 us
        assert sum(faults[:-1]) == faults[-1]
    assert "n = 1000" in lines[7]
    assert [line.split()[0] for line in lines[8:]] == [
        "gaussian-case1", "gaussian-case2", "gaussian-case3", "poisson"
    ]
    # grouped(), fit, dpi_check and its special-function floor at theta0,
    # each in ms, then dpi_check's share beyond the floor
    assert "special-function floor" in lines[7]
    for line in lines[8:]:
        fields = line.split()
        assert len(fields) == 6 and min(float(v) for v in fields[1:5]) > 0.0
        assert fields[5].endswith("%") and float(fields[5][:-1]) < 100.0


def test_the_floor_evaluates_what_the_information_does():
    # erfcx on every row for a Gaussian family; for Poisson each row's far
    # tail, on the routes of the far-tail kernel
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for name in workloads.FAMILIES:
        family, designs, theta0 = workloads.iid_instance(name, 2000, np.random.default_rng(1))
        got = trial_stages.special_floor(family, theta0, designs)()
        X, offset = family.index_regressors(designs)
        z = offset + X.dot(family.index_from_theta(theta0))
        if name == "poisson":
            far, _ = trial_stages._poisson.far_tail(np.floor(designs.taus), np.exp(-z))
            assert len(got) == 2  # right tails and summed left ones at these rates
            assert np.array_equal(np.sort(np.concatenate(got)), np.sort(far))
        else:
            assert np.array_equal(got, trial_stages.special.erfcx(np.abs(z) / np.sqrt(2.0)))
