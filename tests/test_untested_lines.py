"""The untested-line lister, on one small test selection."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import untested_lines  # noqa: E402

TYPES = untested_lines.PACKAGE / "types.py"


def _line(path, text):
    """The number of the one line of ``path`` that holds ``text``."""
    found = [i for i, line in enumerate(path.read_text().splitlines(), 1) if text in line]
    assert len(found) == 1, text
    return found[0]


def test_one_selection():
    code, output, modules = untested_lines.run(
        ["-q", "-p", "no:cacheprovider", "tests/test_types.py::TestDesignSet::test_shapes"]
    )
    assert code == 0 and "1 passed" in output
    # nothing that the selection imports reaches the CLI module
    executable, missing = modules[untested_lines.PACKAGE / "cli.py"]
    assert executable and missing == executable
    # the designs it builds carry aux, and all their entries are finite
    executable, missing = modules[TYPES]
    assert _line(TYPES, "aux = _kept(aux, ") not in missing
    assert _line(TYPES, 'raise ValueError("stacked designs must have shape (n, d, k)")') in missing
    assert missing < executable


def test_executable_lines_leave_out_definitions_and_docstrings():
    lines = untested_lines.executable_lines(TYPES)
    assert _line(TYPES, "def __init__(self, V, taus, aux=None):") not in lines
    assert _line(TYPES, "class DesignSet:") not in lines
    assert _line(TYPES, '"""eta_i = V_i theta for every observation, shape (n, d)."""') not in lines
    assert _line(TYPES, "return self.V.shape[0]") in lines
    assert untested_lines.ranges({3, 4, 5, 9, 11, 12}) == "3-5, 9, 11-12"
