"""List the lines of src/bitglm that a pytest run never executes.

Run from anywhere inside the repository:

    python3 tools/untested_lines.py                      # the whole suite
    python3 tools/untested_lines.py tests/test_types.py -k grouped

The arguments go to ``python -m pytest``, which runs in a subprocess from
the repository root.  Its PYTHONPATH starts with a temporary directory
holding a ``sitecustomize`` module, which installs a ``sys.settrace`` line
tracer at interpreter start-up for frames of files under src/bitglm.  So
the pytest process and every Python process it starts with its
environment (the CLI tests' ``python -m bitglm.cli``) are traced, and each
writes the lines it ran when it exits.

Prints pytest's closing line, then per module the executable lines that
never ran, as ranges.  Executable lines are those of every code object's
``co_lines()``, less the lines of ``def`` and ``class`` statements
(decorators and signatures included) and of docstrings.  Uses the
standard library only; no coverage package is needed.  Exits with
pytest's status.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bitglm"

SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_root = os.environ["UNTESTED_LINES_ROOT"] + os.sep
_ran = {}
_traced = {}  # co_filename -> whether it lies in the package


def _line(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _traced:
        _traced[name] = os.path.abspath(name).startswith(_root)
        if _traced[name]:
            _ran[name] = set()
    return _line if _traced[name] else None


def _write():
    sys.settrace(None)
    ran = {os.path.abspath(name): sorted(lines) for name, lines in _ran.items()}
    path = os.path.join(os.environ["UNTESTED_LINES_OUT"], f"{os.getpid()}.json")
    with open(path, "w") as f:
        json.dump(ran, f)


atexit.register(_write)
sys.settrace(_call)
threading.settrace(_call)
'''


def executable_lines(path):
    """The lines of ``path`` that a tracer can see run, less ``def`` and
    ``class`` statements and docstrings."""
    source = Path(path).read_text(encoding="utf-8")
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            lines -= set(range(first, node.body[0].lineno))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            doc = node.body[0] if node.body else None
            if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) \
                    and isinstance(doc.value.value, str):
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return lines


def run(pytest_args):
    """(pytest's return code, its output, {module path: (executable, never ran)})
    for one traced pytest run over ``pytest_args``."""
    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        Path(site, "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
        path = [site, str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, path)),
            "UNTESTED_LINES_ROOT": str(PACKAGE),
            "UNTESTED_LINES_OUT": out,
        }
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", *pytest_args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        ran = {}
        for dump in Path(out).glob("*.json"):
            for name, lines in json.loads(dump.read_text()).items():
                ran.setdefault(name, set()).update(lines)
    modules = {}
    for module in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(module)
        modules[module] = (executable, executable - ran.get(str(module), set()))
    return proc.returncode, proc.stdout, modules


def ranges(lines):
    """'3-5, 9' for the lines 3, 4, 5 and 9."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None):
    code, output, modules = run(sys.argv[1:] if argv is None else argv)
    closing = [line for line in output.splitlines() if line.strip()]
    print(f"pytest: {closing[-1] if closing else '(no output)'} (exit {code})")
    for module, (executable, missing) in modules.items():
        name = module.relative_to(ROOT)
        print(f"{name}: {len(missing)} of {len(executable)} executable lines never ran")
        if missing:
            print(f"  {ranges(missing)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
