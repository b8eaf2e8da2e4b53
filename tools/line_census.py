"""Which lines of ``src/urex`` the same-bits digests run, which only tests run, and which none.

    python3 tools/line_census.py [--list]

Runs from the root of a source checkout, at ``OPENBLAS_NUM_THREADS=1``.
Two sources run in this process, each under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records only frames
whose file lies under ``src/urex``:

- digests: the work whose digests ``tools/same_bits.py`` compares for one
  checkout (its ``trial_digests``, which runs ``cli_digests`` and
  ``search_digests`` too), then one round at seed 0 of each
  ``benchmarks/workloads.py`` workload;
- tests: Tier-1 (``tests/``) without criterion 06, through ``pytest.main``.
  The child processes a test starts are traced as well, through a
  ``sitecustomize`` put on their ``PYTHONPATH``.

A module's executable lines are the lines of its code objects'
``co_lines``.  Each falls in one class: ``digests`` (the digest work ran
it), ``tests`` (only tests ran it, in this process), ``children`` (only
the child processes of tests ran it) or ``none``.  The table gives the
count of each class per module, and ``raise``: how many lines outside
``digests`` lie in a ``raise`` statement.  ``--list`` prints every line
outside ``digests`` with its class and source text.  Exits 1 if a test
failed.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import contextlib
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "urex"
CLASSES = ("digests", "tests", "children", "none")
SKIPPED_TEST = "tests/test_acceptance.py::test_criterion_06_scripted_search_rewards"
WORKLOAD_SEED = 0
CHILD_OUT = "UREX_LINE_CENSUS_OUT"  # the directory a traced child writes its lines to
CHILD_HOOK = """\
import importlib.util, os
if {var!r} in os.environ:
    spec = importlib.util.spec_from_file_location("_line_census", {tool!r})
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    census.trace_child(os.environ[{var!r}], {root!r})
"""


def code_objects(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from code_objects(const)


def executable_lines(path) -> set[int]:
    """The lines of every code object compiled from the file at ``path``."""
    source = Path(path).read_text()
    return {line for code in code_objects(compile(source, str(path), "exec"))
            for _, _, line in code.co_lines() if line}


def raise_lines(path) -> set[int]:
    """The lines that a ``raise`` statement of the file at ``path`` spans."""
    return {line for node in ast.walk(ast.parse(Path(path).read_text()))
            if isinstance(node, ast.Raise) for line in range(node.lineno, node.end_lineno + 1)}


class LineTracer:
    """Records (file, line) of each line run in a frame whose file lies under ``root``.

    A code object stops being traced once every line of it has run, so a
    hot loop costs the tracer little after its first pass.  A function's
    first line only runs in the frame that defines it, so it is not
    waited for in the function's own frames.
    """

    def __init__(self, root):
        self.root = str(Path(root).resolve()) + os.sep
        self.lines: dict[str, set[int]] = {}
        self._local = {}  # code -> its local trace function, or None once untraced

    def _trace_code(self, code):
        path = os.path.realpath(code.co_filename)
        if not path.startswith(self.root):
            return None
        left = {line for _, _, line in code.co_lines() if line}
        if code.co_name != "<module>":
            left.discard(code.co_firstlineno)
        seen = self.lines.setdefault(path, set())
        local_traces = self._local

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in left:
                seen.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:
                    local_traces[code] = None
                    return None
            return local

        return local if left else None

    def _call(self, frame, event, arg):
        code = frame.f_code
        try:
            return self._local[code]
        except KeyError:
            local = self._local[code] = self._trace_code(code)
            return local

    def __enter__(self):
        self._outer = sys.gettrace(), threading.gettrace()  # the census runs this tool's test
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


def trace_child(out_dir, root) -> None:
    """Trace this process under ``root`` and write its lines to ``out_dir`` at exit."""
    tracer = LineTracer(root).__enter__()

    def write():
        tracer.__exit__()
        lines = {path: sorted(found) for path, found in tracer.lines.items()}
        Path(out_dir, f"{os.getpid()}.json").write_text(json.dumps(lines))

    atexit.register(write)


def child_lines(out_dir) -> dict[str, set[int]]:
    """The lines every traced child wrote to ``out_dir``, merged."""
    merged: dict[str, set[int]] = {}
    for path in Path(out_dir).glob("*.json"):
        for name, lines in json.loads(path.read_text()).items():
            merged.setdefault(name, set()).update(lines)
    return merged


def write_child_hook(hook_dir, root) -> None:
    """A ``sitecustomize`` in ``hook_dir`` that traces a child process under
    ``root`` when ``CHILD_OUT`` names a directory for its lines."""
    hook = CHILD_HOOK.format(var=CHILD_OUT, tool=str(Path(__file__).resolve()), root=str(root))
    Path(hook_dir, "sitecustomize.py").write_text(hook)


def classify(root, digests, tests, children) -> dict[str, dict[int, str]]:
    """Each executable line of each ``.py`` file under ``root``, mapped to its class.

    ``digests``, ``tests`` and ``children`` map a file's real path to the
    lines that source ran in it.
    """
    classes = {}
    for path in sorted(Path(root).resolve().rglob("*.py")):
        name = str(path)
        ran = [found.get(name, set()) for found in (digests, tests, children)]
        classes[name] = {line: next((c for c, lines in zip(CLASSES, ran) if line in lines), "none")
                         for line in sorted(executable_lines(path))}
    return classes


def report(classes, root, listing=False) -> str:
    """The count of each class per module of ``classify``'s result; with
    ``listing``, then each line outside ``digests``."""
    root = Path(root).resolve().parent
    rows = []
    for path, lines in classes.items():
        counts = [sum(c == cls for c in lines.values()) for cls in CLASSES]
        raised = raise_lines(path)
        outside = [line for line, cls in lines.items() if cls != "digests"]
        rows.append([str(Path(path).relative_to(root)), len(lines), *counts,
                     sum(line in raised for line in outside)])
    rows.append(["total", *(sum(row[i] for row in rows) for i in range(1, 7))])
    width = max(len(row[0]) for row in rows)
    text = [f"{'module':<{width}}  {'lines':>5}" + "".join(f"  {c:>8}" for c in (*CLASSES, "raise"))]
    text += [f"{row[0]:<{width}}  {row[1]:>5}" + "".join(f"  {n:>8}" for n in row[2:])
             for row in rows]
    if listing:
        for path, lines in classes.items():
            source = Path(path).read_text().splitlines()
            for line, cls in lines.items():
                if cls != "digests":
                    where = f"{Path(path).relative_to(root)}:{line}"
                    text.append(f"{cls:<8}  {where:<32}  {source[line - 1].strip()}")
    return "\n".join(text)


def digest_work(out_dir) -> None:
    """The digests ``tools/same_bits.py`` takes of one checkout, and one
    round of each benchmark workload."""
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "benchmarks")]
    try:
        import same_bits
        import workloads
    finally:
        del sys.path[:2]

    same_bits.trial_digests()
    for workload in workloads.WORKLOADS.values():
        workload.setup(WORKLOAD_SEED)
        workload.run_round(WORKLOAD_SEED, out_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true", help="print each line outside digests")
    args = ap.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, as in same_bits
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        started = time.perf_counter()
        with LineTracer(PACKAGE) as digests:
            digest_work(tmp)
        print(f"digests: {time.perf_counter() - started:.0f} s", file=sys.stderr)
        import pytest  # here, not above: every traced child loads this module

        (tmp / "hook").mkdir()
        (tmp / "children").mkdir()
        write_child_hook(tmp / "hook", PACKAGE)
        # tests hand a child this process's sys.path, or the environment's PYTHONPATH
        sys.path.append(str(tmp / "hook"))
        paths = [p for p in (os.environ.get("PYTHONPATH"), str(tmp / "hook")) if p]
        os.environ.update({CHILD_OUT: str(tmp / "children"), "PYTHONPATH": os.pathsep.join(paths)})
        started = time.perf_counter()
        with LineTracer(PACKAGE) as tests, contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", "tests",
                                  "--deselect", SKIPPED_TEST])
        print(f"tests: {time.perf_counter() - started:.0f} s, pytest exit {status}",
              file=sys.stderr)
        children = child_lines(tmp / "children")
    print(report(classify(PACKAGE, digests.lines, tests.lines, children), PACKAGE, args.list))
    return int(status != 0)


if __name__ == "__main__":
    sys.exit(main())
