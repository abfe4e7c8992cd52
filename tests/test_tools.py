"""The developer tools under ``tools/``, loaded from their files."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_trees = _load("compare_trees", TOOLS / "compare_trees.py")


def test_differences_lists_each_drifting_column_worst_first(tmp_path):
    # ratio drifts 1e-10 of its largest magnitude, tau 1e-12, lambda not at
    # all; zero stays below the zero floor, and kind differs as a string
    left, right = tmp_path / "parent.csv", tmp_path / "change.csv"
    left.write_text(
        "lambda,tau,ratio,zero,kind\n"
        "1.5,2.0,10.0,1e-30,a\n"
        "2.5,4.0,20.0,0.0,b\n",
        encoding="utf-8",
    )
    right.write_text(
        "lambda,tau,ratio,zero,kind\n"
        "1.5,2.000000000004,10.0,2e-30,a\n"
        "2.5,4.0,20.000000002,0.0,c\n",
        encoding="utf-8",
    )
    assert compare_trees.differences(left, right) == [
        "worst float drift 1.00e-10 of its column's largest magnitude, in ratio",
        "  drift 1.00e-10 in ratio",
        "  drift 1.00e-12 in tau",
        "exact-zero column, largest |x| 2.00e-30, in zero",
        'row 2 kind: "b" -> "c"',
    ]
    # equal files give no line
    assert compare_trees.differences(left, left) == []


def test_census_line_adds_applications_and_solves_or_n_a():
    entry = {
        "requests": [4, 6], "lanczos": [49, 21], "interlaced": [21], "counts": [],
        "factors": [["solve", 49], ["solve", 21], ["count", 49]], "through_union": [8],
    }
    head = "[4, 6] (2, 3 = 0 + 2 + 1; 1 + 0; through the union: 8; "
    assert compare_trees.census_line(entry) == head + "applications n/a, solves n/a)"
    entry.update(applications=[30, 12], solves=[[21, 1], [21, 3], [49, 1]])
    assert compare_trees.census_line(entry) == head + "applications 42, solves 3 (5 columns))"
