"""The package's public surface."""

import ast
import importlib
import inspect
from pathlib import Path

import strassen7

MODULES = ("cli", "construction", "engine", "fields", "fileformat", "linalg", "verification")


def test_every_export_resolves_once():
    names = strassen7.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(strassen7, name)]
    assert missing == []


def test_every_value_error_is_an_input_error():
    """The CLI exits 2 only on InputError, so each error class the library
    raises for bad values must derive from it; others exit 3 as bugs."""
    checked = 0
    for name in MODULES:
        module = importlib.import_module(f"strassen7.{name}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and issubclass(cls, (ValueError, ArithmeticError))):
                assert issubclass(cls, strassen7.InputError), cls.__qualname__
                checked += 1
    assert checked >= 17


def test_public_methods_have_library_callers():
    """Every public method of the scalar and 2x2 types is used by the
    library or the benchmark, not only by the tests.  An attribute name
    that something also stores as data (``_Plan.scale``) counts only
    where it is called."""
    root = Path(__file__).resolve().parent.parent
    sources = [*(root / "src" / "strassen7").glob("*.py"), *(root / "perfbench").glob("*.py")]
    nodes = [node for path in sources for node in ast.walk(ast.parse(path.read_text()))]
    attrs = [node for node in nodes if isinstance(node, ast.Attribute)]
    stored = {a.attr for a in attrs if isinstance(a.ctx, ast.Store)}
    called = {node.func.attr for node in nodes
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    used = called | ({a.attr for a in attrs if isinstance(a.ctx, ast.Load)} - stored)
    classes = (strassen7.Mat2, strassen7.ColVec2, strassen7.RowVec2, strassen7.Field,
               strassen7.Rationals, strassen7.PrimeField, strassen7.FieldElement)
    methods = [f"{cls.__name__}.{name}" for cls in classes for name, member in vars(cls).items()
               if not name.startswith("_")
               and (inspect.isfunction(member) or isinstance(member, classmethod))]
    assert len(methods) >= 20
    assert [m for m in methods if m.split(".")[1] not in used] == []
