"""The fit sweep script, on 10 draws per family of this tree against itself."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import fit_sweep  # noqa: E402


def test_ten_draws_against_itself(capsys):
    fit_sweep.main(["--draws", "10", str(ROOT), str(ROOT)])
    out = capsys.readouterr().out
    for name in fit_sweep.FAMILIES:
        # one outcome line per tree, each counting 10 draws
        lines = [line for line in out.splitlines() if line.strip().startswith(f"{name} ")]
        assert len(lines) == 2
        counts = lines[0].split(" s  ")[1].split(", ")
        assert sum(int(c.rsplit(" ", 1)[1]) for c in counts) == 10
    assert out.count("total fit time") == 2
    # the same tree twice: no transitions, identical estimates and fits
    assert "->" not in out.split("==")[-1].split("\n", 1)[1]
    assert out.count("worst relative estimate difference (both converged): 0\n") == 4
    assert out.count("worst log-likelihood shortfall: 0 ") == 4
    for key in ("fim", "score", "hessian"):
        assert out.count(f"worst relative {key} difference at theta: 0 ") == 4
