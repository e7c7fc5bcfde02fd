import ast
from pathlib import Path

import pytest

from gaitprop.harness import GridResult, RunRecord, write_grid_csv

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaitprop"
WRITER = "files.py"


def _file_writes(tree: ast.AST) -> set[str]:
    """Write-mode ``open``, ``os.makedirs`` and ``os.replace`` calls."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("makedirs", "replace")
                and isinstance(func.value, ast.Name) and func.value.id == "os"):
            found.add(f"os.{func.attr}")
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            # a mode that is not a literal may be a write mode
            if any(not isinstance(m, ast.Constant) or set(m.value) - set("rbt")
                   for m in modes):
                found.add("open for writing")
    return found


def test_only_the_writer_module_writes_files():
    by_module = {p.name: _file_writes(ast.parse(p.read_text()))
                 for p in sorted(PACKAGE.glob("*.py"))}
    assert by_module.pop(WRITER) == {"os.makedirs", "os.replace", "open for writing"}
    assert {name: calls for name, calls in by_module.items() if calls} == {}


def test_failed_write_keeps_previous_file(tmp_path):
    def grid(etas, peak):
        rec = RunRecord(config={}, peak_train_acc=peak, final_train_acc=peak)
        return GridResult(etas=etas, lambdas=[0.0], records={(1e-3, 0.0): rec})

    path = tmp_path / "grid_gait.csv"
    write_grid_csv(grid([1e-3], 0.5), path)
    first = path.read_bytes()
    # eta 1e-4 has neither a record nor a failure, so its row raises after
    # the first row has been formatted
    with pytest.raises(KeyError):
        write_grid_csv(grid([1e-3, 1e-4], 0.25), path)
    assert path.read_bytes() == first
    assert [p.name for p in tmp_path.iterdir()] == ["grid_gait.csv"]
