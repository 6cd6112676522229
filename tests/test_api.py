"""The package's public surface."""

import importlib
import inspect

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
