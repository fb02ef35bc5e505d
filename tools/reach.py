"""List the mpxlab statements that no benchmark, demo or CLI run executes.

Run from the repository root:

    python3 tools/reach.py

It takes no options.  Under a ``sys.settrace`` line trace it runs:

- every ``perfbench/run.py`` workload spec at seed 0, once through
  ``mpxlab.cli.main(["simulate", ...])`` and once through perfbench's traced
  library path (``simulate_traced``);
- the five demos, through ``runpy``;
- ``analyze``, ``assign`` and ``assign --emit-spec`` on each of those specs;
- ``oracle-check``;
- the specs of ``tools/digest_sweep.py`` at channel pool 16, and ``assign``
  and ``analyze`` on those of them with the mechanism's default policy and
  no hints, so every kind's binding labels and shape count as reached.

It then prints, grouped by file, each statement inside a function of
``src/mpxlab`` that none of these runs executed, and a final count.
Module-level and class-level statements run at import, so it does not list
them.  It is not a gate: error paths are expected in its output.  It prints
its own run time last.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "mpxlab"
BENCH_DIR = ROOT / "perfbench"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class LineTrace:
    """The lines of ``src/mpxlab`` each traced run executes, per file."""

    def __init__(self):
        self.hits: dict[str, set[int]] = {}
        self._local: dict = {}  # code object -> its file's tracer, or None
        self._prefix = str(PACKAGE) + "/"

    def _tracer_of(self, code):
        filename = code.co_filename
        if not filename.startswith(self._prefix):
            return None
        add = self.hits.setdefault(filename, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            local = self._local[code]
        except KeyError:
            local = self._local[code] = self._tracer_of(code)
        return local

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)


def function_statements(path: Path):
    """(first line, last line, source line) of each statement inside a
    function body, docstrings and declarations excluded.  A statement ran
    when any of its lines did: a compound one when its header or any
    statement nested in it did."""
    source = path.read_text()
    lines = source.splitlines()
    out = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.Lambda))
            if isinstance(child, ast.stmt) and in_function and not (
                    isinstance(child, (ast.Global, ast.Nonlocal))
                    or (isinstance(child, ast.Expr)
                        and isinstance(child.value, ast.Constant)
                        and isinstance(child.value.value, str))):
                first = min([child.lineno] + [d.lineno for d in getattr(
                    child, "decorator_list", [])])
                out.append((first, child.end_lineno,
                            lines[child.lineno - 1].strip()))
            if isinstance(child, ast.ClassDef):
                visit(child, False)
            else:
                visit(child, in_function or is_def)

    visit(ast.parse(source), False)
    return out


def exercise(trace: LineTrace):
    """Every run the listing accounts for, each under the line trace."""
    sys.path[:0] = [str(SRC), str(BENCH_DIR), str(ROOT / "tools")]
    bench = _load("perfbench_run", BENCH_DIR / "run.py")
    sweep = _load("digest_sweep", ROOT / "tools" / "digest_sweep.py")
    from mpxlab import cli
    from spans import Tracer

    # the CLI's own output, and its refusals of the sweep's odd grids
    quiet_out = contextlib.redirect_stdout(io.StringIO())
    quiet_err = contextlib.redirect_stderr(io.StringIO())
    with tempfile.TemporaryDirectory() as tmp, quiet_out, quiet_err, \
            trace.active():
        tmp = Path(tmp)
        check, tracer = bench.HashCheck({}), Tracer()
        for workload in bench.WORKLOADS:
            for path in bench.write_specs(workload, 0, tmp / workload).values():
                cli.main(["simulate", "--spec", str(path), "--out",
                          str(tmp / "reports"), "--format", "json"])
                bench.simulate_traced(path, check, tracer)
                cli.main(["analyze", "--spec", str(path)])
                cli.main(["assign", "--spec", str(path)])
                cli.main(["assign", "--spec", str(path), "--emit-spec"])
        if check.failed:
            raise SystemExit(f"reach: {check.failed} traced runs failed")
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
        cli.main(["oracle-check"])
        for n, spec in enumerate(sweep.specs()):
            if spec["channel_pool"] == 16:
                sweep.outcome(spec)
                if "policy" not in spec and not spec["hints"]:
                    path = tmp / f"sweep-{n}.json"
                    path.write_text(json.dumps(spec))
                    cli.main(["assign", "--spec", str(path)])
                    cli.main(["analyze", "--spec", str(path)])


def main() -> int:
    start = perf_counter()
    trace = LineTrace()
    exercise(trace)
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        hit = trace.hits.get(str(path), set())
        missed = [(first, text) for first, last, text in function_statements(path)
                  if not hit.intersection(range(first, last + 1))]
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)}")
            for line, text in missed:
                print(f"  {line}: {text}")
        total += len(missed)
    print(f"{total} statements never executed")
    print(f"run time {perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
