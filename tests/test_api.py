"""The package's public surface."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import strassen7
from conftest import identity_matrix
from strassen7.cli import cli_main

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


# Members and dataclass fields that no workload op and no README command
# calls or reads, each with the reason it is kept.  Frozen dataclasses
# (Term, Rotation, PerpPair, StrassenBasis, Provenance,
# BilinearDecomposition) hash through the __hash__ of their fields, and a
# class that defines __eq__ without __hash__ is unhashable.
UNCALLED_BUT_KEPT = {
    "Field.__hash__": "BilinearDecomposition hashes through its field",
    "FieldElement.__hash__": "Term hashes through its coefficients, and Mat2 through its entries",
    "Mat2.__hash__": "Rotation, StrassenBasis, Term and Provenance hash through their matrices",
    "_Vec2.__hash__": "PerpPair and Provenance hash through their vectors",
    "Field.__repr__": "a field prints as its descriptor in a report or a traceback",
    "_Vec2.__repr__": "a vector prints as (x, y) in a report or a traceback",
    "Failure.x_index": "verify --json prints it for a failing check (VerificationReport.to_dict)",
    "Failure.y_index": "verify --json prints it for a failing check (VerificationReport.to_dict)",
}


def _members(classes) -> dict:
    """'Owner.name' -> (owner, name) for every operator and public method
    the classes have, each under the class along the MRO that defines it."""
    members = {}
    for cls in classes:
        for name in dir(cls):
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                continue
            owner = next(c for c in cls.__mro__ if name in vars(c))
            member = vars(owner)[name]
            if owner is not object and (inspect.isfunction(member)
                                        or isinstance(member, classmethod)):
                members[f"{owner.__name__}.{name}"] = owner, name
    return members


def _public_dataclasses() -> list:
    """Every dataclass that a module of the package defines under a public
    name."""
    return [cls for name in MODULES
            for cls in vars(importlib.import_module(f"strassen7.{name}")).values()
            if inspect.isclass(cls) and dataclasses.is_dataclass(cls)
            and cls.__module__ == f"strassen7.{name}" and not cls.__name__.startswith("_")]


def _count_field_reads(monkeypatch, classes, read: set) -> list:
    """Make every field of the dataclasses a property that adds
    'Class.field' to ``read`` when it is read; the keys, in order."""
    keys = []
    for cls in classes:
        for field in dataclasses.fields(cls):
            key = f"{cls.__name__}.{field.name}"

            def get(self, _name=field.name, _key=key):
                read.add(_key)
                return self.__dict__[_name]

            def put(self, value, _name=field.name):
                self.__dict__[_name] = value

            monkeypatch.setattr(cls, field.name, property(get, put), raising=False)
            keys.append(key)
    return keys


def test_operators_and_methods_have_library_callers(monkeypatch, tmp_path, capsys):
    """Every operator and public method of the scalar and 2x2 types runs,
    and every field of every public dataclass is read, when a few ops of
    each benchmark workload (op, check and probe, on the derived and on a
    perturbed decomposition) and README's command block run, except those
    in ``UNCALLED_BUT_KEPT``."""
    from test_readme import _commands

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from spans import Tracer
    from workloads import WORKLOADS, CheckFailed

    members = _members((strassen7.FieldElement, strassen7.Rationals, strassen7.PrimeField,
                        strassen7.Mat2, strassen7.ColVec2, strassen7.RowVec2))
    assert len(members) >= 39
    called = set()
    classes = _public_dataclasses()
    assert {strassen7.StrassenBasis, strassen7.Term, strassen7.VerificationReport} <= set(classes)
    fields = _count_field_reads(monkeypatch, classes, called)
    assert len(fields) >= 30
    for key, (owner, name) in members.items():
        member = vars(owner)[name]
        fn = member.__func__ if isinstance(member, classmethod) else member

        def counting(*args, _fn=fn, _key=key, **kwargs):
            called.add(_key)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name,
                            classmethod(counting) if isinstance(member, classmethod) else counting)
    for make in WORKLOADS.values():
        for perturb in (False, True):
            w = make(1, tmp_path, perturb=perturb)
            for i in range(w.cycle):
                result = w.op(i, Tracer())
                if perturb:
                    with pytest.raises(CheckFailed):
                        w.check(i, result, Tracer())
                else:
                    w.check(i, result, Tracer())
                w.probe(i, result, Tracer())
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("n 2 field rational\n1 2\n3 4\n")
    (tmp_path / "b.txt").write_text("n 2 field rational\n1/2 0\n-1 5\n")
    for argv in _commands():
        assert cli_main(argv) == 0, (argv, capsys.readouterr().err)
    assert set(UNCALLED_BUT_KEPT) <= {*members, *fields}
    assert sorted({*members, *fields} - called - set(UNCALLED_BUT_KEPT)) == []
    # an entry that gains a caller leaves the list
    assert sorted(called & set(UNCALLED_BUT_KEPT)) == []


def test_only_engine_imports_engine_private_names():
    """The matrix layout is engine's alone: no other module of the package
    or the benchmark imports an underscore name from ``engine`` (MatN's
    arrays are built by its own ``_arrays``)."""
    root = Path(__file__).resolve().parent.parent
    sources = [*(root / "src" / "strassen7").glob("*.py"), *(root / "perfbench").glob("*.py")]
    imported = [f"{path.name}: {alias.name}" for path in sources if path.name != "engine.py"
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("engine")
                for alias in node.names if alias.name.startswith("_")]
    assert len(sources) >= 8 and imported == []


GF5 = strassen7.PrimeField(5)
IDENTITY = identity_matrix(GF5)


@pytest.mark.parametrize("op, outcome", [
    (lambda: GF5(1) + "x", TypeError),
    (lambda: IDENTITY @ 3, TypeError),
    (lambda: strassen7.RowVec2(GF5, [1, 2]) @ IDENTITY, TypeError),
    (lambda: GF5(1) == "x", False),
    (lambda: IDENTITY == 3, False),
    (lambda: strassen7.ColVec2(GF5, [1, 2]) == strassen7.RowVec2(GF5, [1, 2]), False),
    (lambda: strassen7.MatN(GF5, [[1]]) == 3, False),
], ids=["element+str", "mat2@int", "row@mat2", "element==str", "mat2==int", "col==row",
        "matn==int"])
def test_operators_refuse_other_types(op, outcome):
    """An operand of another type makes an operator return NotImplemented:
    arithmetic then raises TypeError and == is False."""
    if outcome is TypeError:
        with pytest.raises(TypeError):
            op()
    else:
        assert op() is outcome
