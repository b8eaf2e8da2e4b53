"""The tracer and the line classes of ``tools/line_census.py``, on a small
package written for the test."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "line_census.py"
_SPEC = importlib.util.spec_from_file_location("line_census", _PATH)
line_census = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(line_census)

TARGET = '''\
def digested(x):
    total = 0
    for i in range(x):
        total += i
    return total


def tested(flag):
    if flag:
        return 1
    raise ValueError(
        "not flag")


def in_child():
    return 2


def unreached():
    return 3
'''


def test_lines_fall_in_digests_tests_children_or_none(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "census_target.py").write_text(TARGET)
    sys.path.insert(0, str(package))
    outer = sys.gettrace()
    try:
        with line_census.LineTracer(package) as digests:
            import census_target

            assert census_target.digested(5) == 10
        with line_census.LineTracer(package) as tests:
            census_target.digested(2)
            assert census_target.tested(True) == 1
    finally:
        sys.path.remove(str(package))
        sys.modules.pop("census_target", None)
    assert sys.gettrace() is outer  # a census tracing this test keeps tracing

    out, hook = tmp_path / "children", tmp_path / "hook"
    out.mkdir()
    hook.mkdir()
    line_census.write_child_hook(hook, package)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(package), str(hook)]))
    env[line_census.CHILD_OUT] = str(out)
    subprocess.run([sys.executable, "-c", "import census_target; census_target.in_child()"],
                   env=env, check=True, timeout=60)
    children = line_census.child_lines(out)

    classes = line_census.classify(package, digests.lines, tests.lines, children)
    (lines,) = classes.values()
    by_class = {c: [line for line, cls in lines.items() if cls == c] for c in line_census.CLASSES}
    assert by_class == {"digests": [1, 2, 3, 4, 5, 8, 15, 19],
                        "tests": [9, 10],
                        "children": [16],
                        "none": [11, 12, 20]}
    table = line_census.report(classes, package).splitlines()
    assert table[1].split() == ["pkg/census_target.py", "14", "8", "2", "1", "3", "2"]
    assert table[-1].split()[0] == "total"
