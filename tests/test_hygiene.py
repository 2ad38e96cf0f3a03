"""Static hygiene of ``src/repro``, checked with the standard ``ast``
module: no import goes unused, and no module-level private name is
left behind that its module never reads. Both catch what a deletion
leaves over."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))
#: A package's ``__init__`` imports are its re-exports.
IMPORTERS = [p for p in MODULES if p.name != "__init__.py"]


def _ids(path: Path) -> str:
    return str(path.relative_to(SRC))


def _read_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


@pytest.mark.parametrize("path", IMPORTERS, ids=_ids)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = _read_names(tree)
    assert [n for n in imported if n not in read] == []


@pytest.mark.parametrize("path", MODULES, ids=_ids)
def test_every_private_name_is_read(path):
    """A module-level ``_name`` (function, class or constant) is read in
    its module; a decorated function counts as read by its decorator."""
    tree = ast.parse(path.read_text())
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.decorator_list:
                defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append(node.target.id)
    private = [n for n in defined if n.startswith("_") and not n.startswith("__")]
    read = _read_names(tree)
    assert [n for n in private if n not in read] == []
