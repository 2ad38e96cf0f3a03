"""Static hygiene of ``src/repro``, checked with the standard ``ast``
module: no import goes unused, and no module-level private name is
left behind that its module never reads. Both catch what a deletion
leaves over. Every partition function the engine ships to Spark is
built by ``worker_task``, so no Spark path pays PySpark's per-task
archive re-read again. No Spark step is built through ``F.col`` or a
``Column`` method, which PySpark wraps in a call-site capture. Every
engine a test builds with Spark has the tests' Spark config
(``conftest.spark_engine``), so no small test input is quietly read by
the local engine."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))
#: A package's ``__init__`` imports are its re-exports.
IMPORTERS = [p for p in MODULES if p.name != "__init__.py"]
#: The RDD and DataFrame calls that run a Python function in a Spark task.
SPARK_MAPS = {"mapPartitions", "mapInArrow", "map", "flatMap"}
#: ``Column`` methods, each wrapped by PySpark in a call-site capture.
COLUMN_METHODS = {"alias", "cast", "getField", "withField", "otherwise", "asc", "desc"}
CORE = sorted((SRC / "core").rglob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", CORE, ids=_ids)
def test_every_spark_function_is_a_worker_task(path):
    """Each ``.mapPartitions(``, ``.mapInArrow(``, ``.map(`` and
    ``.flatMap(`` call in the engine gets ``worker_task(...)`` as its
    function."""
    bare = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in SPARK_MAPS
            and not (node.args and isinstance(node.args[0], ast.Call)
                     and isinstance(node.args[0].func, ast.Name)
                     and node.args[0].func.id == "worker_task")]
    assert bare == []


@pytest.mark.parametrize("path", CORE, ids=_ids)
def test_no_spark_step_is_built_from_column_methods(path):
    """The engine writes Spark SQL steps as SQL text (``selectExpr``,
    ``F.expr``) and column-name strings: no ``F.col(`` and no call of a
    ``Column`` method. ``F.asc`` and ``F.desc`` over a name are
    functions, not methods, and are not wrapped."""
    def wrapped(node) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        on_functions = isinstance(node.func.value, ast.Name) and node.func.value.id == "F"
        return node.func.attr == "col" if on_functions else node.func.attr in COLUMN_METHODS

    assert [node.lineno for node in ast.walk(ast.parse(path.read_text())) if wrapped(node)] == []


def _forces_local(node) -> bool:
    """Whether ``node`` is ``RumbleConfig(..., force_local=True, ...)``."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "RumbleConfig"
            and any(k.arg == "force_local" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in node.keywords))


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_every_spark_test_engine_has_the_spark_config(path):
    """A test builds an engine with Spark only through
    ``conftest.spark_engine``: any other ``Rumble(...)`` call passes a
    ``RumbleConfig`` with ``force_local=True``."""
    tree = ast.parse(path.read_text())
    helper = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "spark_engine"
              and path.name == "conftest.py" for node in ast.walk(fn)}
    other = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and id(node) not in helper
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Rumble"
             and not any(map(_forces_local, [*node.args, *(k.value for k in node.keywords)]))]
    assert other == []
