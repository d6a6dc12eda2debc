"""The trial stage timer, at one trial and one timing per stage."""

import sys
from pathlib import Path

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
        times = [float(v) for v in row.split()[1:]]
        assert len(times) == len(trial_stages.STAGES) + 1 and min(times) > 0.0
        assert abs(sum(times[:-1]) - times[-1]) < 0.3  # each printed to 0.1 us
    assert "n = 1000" in lines[7]
    assert [line.split()[0] for line in lines[8:]] == [
        "gaussian-case1", "gaussian-case2", "gaussian-case3", "poisson"
    ]
    # grouped(), fit and dpi_check at theta0, each in ms
    assert all(
        len(line.split()) == 4 and min(float(v) for v in line.split()[1:]) > 0.0
        for line in lines[8:]
    )
