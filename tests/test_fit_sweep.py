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
    # per tree and family, the Newton iterations of each status: the same
    # tree twice reads the same totals and maxima
    totals = [line for line in out.splitlines() if line.startswith("    newton iterations: ")]
    assert len(totals) == 2 * len(fit_sweep.FAMILIES)
    assert totals[: len(fit_sweep.FAMILIES)] == totals[len(fit_sweep.FAMILIES):]
    assert any("converged " in line and "(max " in line for line in totals)
    assert out.count("total fit time") == 2
    # the same tree twice: no transitions, identical estimates and fits
    assert "->" not in out.split("==")[-1].split("\n", 1)[1]
    assert out.count("worst relative estimate difference (both converged): 0\n") == 4
    assert out.count("worst log-likelihood shortfall: 0 ") == 4
    for key in ("fim", "fim_uncensored", "score", "hessian"):
        assert out.count(f"worst relative {key} difference at theta: 0 ") == 4
    assert out.count("worst relative uncensored_mle difference: 0 ") == 4


def test_estimates_that_round_to_zero_read_their_difference():
    # a root within rounding of 0 in one tree and exactly 0 in the other
    assert fit_sweep._rel(4.6e-18, 0.0) == 4.6e-18
    assert fit_sweep._rel_array([4.6e-18], [0.0], 1.0) == 4.6e-18
    # above 1 the difference stays relative, and so do the matrices
    assert fit_sweep._rel(4.0, 2.0) == 0.5
    assert fit_sweep._rel_array([[4.6e-18]], [[0.0]]) == 1.0
