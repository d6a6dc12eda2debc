"""The fit sweep script, on 10 draws per family of this tree against itself,
and its rounds on stand-in workers."""

import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import fit_sweep  # noqa: E402
import pytest  # noqa: E402


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
    times = [line for line in out.splitlines() if line.startswith("    fit time: ")]
    assert len(times) == 2 * len(fit_sweep.FAMILIES)
    assert all(line.endswith(" s") for line in times)
    assert out.count("total fit time") == 2
    # the same tree twice: no transitions, identical estimates and fits
    assert "->" not in out.split("==")[-1].split("\n", 1)[1]
    assert out.count("worst relative estimate difference (both converged): 0\n") == 4
    assert out.count("worst relative estimate difference (both boundary-divergence): 0\n") == 4
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


def _stand_in(calls, seconds=None, outcome=None):
    """A ``worker`` whose function logs each (src, family, draw) it is asked
    and answers with a record of that call's round r, timed
    ``seconds(src, name, i, r)`` and ending ``outcome(src, name, i, r)``."""
    @contextlib.contextmanager
    def worker(src, count, seed):
        def ask(name, i):
            r = calls.count((src, name, i))
            calls.append((src, name, i))
            return {
                "family": name, "draw": i, "round": r,
                "outcome": outcome(src, name, i, r) if outcome else "converged",
                "seconds": seconds(src, name, i, r) if seconds else 1.0,
            }
        yield ask
    return worker


def _trees(tmp_path, *names):
    """Stand-in trees, each a directory holding an empty src/bitglm."""
    for name in names:
        (tmp_path / name / "src" / "bitglm").mkdir(parents=True)
    return [tmp_path / name for name in names]


def test_rounds_alternate_the_trees_draw_by_draw(tmp_path, monkeypatch):
    calls = []
    trees = _trees(tmp_path, "old", "new")
    old, new = (tree.resolve() / "src" for tree in trees)

    def seconds(src, name, i, r):
        return [0.9, 0.5, 0.7][r] if (src, name, i) == (new, "poisson", 1) else 1.0

    monkeypatch.setattr(fit_sweep, "worker", _stand_in(calls, seconds))
    results = fit_sweep.run_trees(trees, 2, 5)
    assert fit_sweep.ROUNDS == 3
    assert calls == [
        (src, name, i)
        for name in fit_sweep.FAMILIES for i in range(2) for _ in range(3) for src in (old, new)
    ]
    # each draw keeps its fastest round's record, in family and draw order
    for records in results:
        assert [(r["family"], r["draw"]) for r in records] == [
            (name, i) for name in fit_sweep.FAMILIES for i in range(2)
        ]
    assert [r["round"] for r in results[1] if r["family"] == "poisson"] == [0, 1]
    assert [r["seconds"] for r in results[1] if r["family"] == "poisson"] == [1.0, 0.5]


def test_rounds_that_disagree_stop_the_sweep(tmp_path, monkeypatch):
    def outcome(src, name, i, r):
        return "max-iterations" if (name, i, r) == ("gaussian-case3", 1, 2) else "converged"

    monkeypatch.setattr(fit_sweep, "worker", _stand_in([], outcome=outcome))
    with pytest.raises(SystemExit, match="gaussian-case3 draw 1 changes outcome"):
        fit_sweep.run_trees(_trees(tmp_path, "tree"), 2, 5)


def test_a_worker_that_stops_ends_the_sweep(tmp_path, capfd):
    # a bitglm package without the API: the worker dies importing it
    (tree,) = _trees(tmp_path, "tree")
    (tree / "src" / "bitglm" / "__init__.py").write_text("")
    with pytest.raises(SystemExit, match="the worker stopped"):
        fit_sweep.run_trees([tree], 2, 5)
    assert "ImportError" in capfd.readouterr().err
