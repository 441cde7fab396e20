"""Every arithmetic dunder that a class of the package defines is called by
the package on the CLI's commands.

``test_package_surface`` counts a method as used when some source file
names it, and exempts dunders, which operators call without naming them.
This test covers them by running: every arithmetic dunder defined in
``src/quivertl/`` is wrapped to record its calls, the commands below run
in this process on fresh geometries, and a dunder that no command called
fails the test by name.
"""

import importlib
import inspect
import pkgutil

import quivertl
from quivertl import geometry
from quivertl.cli import EXIT_OK, main

BINARY = ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow")
ARITHMETIC = {"__neg__", "__pos__", "__abs__"} | {
    "__%s%s__" % (prefix, op) for op in BINARY for prefix in ("", "r", "i")
}

INTRO = ["--l", "3", "--e", "8", "--kappa", "0,4,6", "--n", "13"]
LONG_L2 = ["--l", "2", "--e", "4", "--kappa", "0,2", "--n", "40"]
COMMANDS = [
    ["decompose", *INTRO, "--mu", "4,9,0", "--oracle", "on", "--format", fmt]
    for fmt in ("table", "json")
] + [
    ["decompose", *LONG_L2, "--mu", "20,20", "--oracle", "on", "--format", fmt]
    for fmt in ("table", "json")
] + [
    ["blocks", *INTRO],
    ["paths", *INTRO, "--lambda", "4,6,3", "--mu", "4,9,0"],
    ["svg", *INTRO, "--lambda", "4,6,3", "--mu", "4,9,0"],
]


def package_classes():
    """Every class defined in a module of the package."""
    for info in pkgutil.iter_modules(quivertl.__path__):
        module = importlib.import_module("quivertl." + info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield cls


def test_every_arithmetic_dunder_has_a_package_caller(monkeypatch, capsys):
    classes = list(package_classes())
    assert "Laurent" in {cls.__name__ for cls in classes}
    calls = {}
    for cls in classes:
        for name in ARITHMETIC & set(vars(cls)):
            key = "%s.%s.%s" % (cls.__module__, cls.__qualname__, name)
            calls[key] = 0

            def wrapper(*args, _real=vars(cls)[name], _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)
    monkeypatch.setattr(geometry, "_GEOMETRIES", {})
    for argv in COMMANDS:
        assert main(argv) == EXIT_OK, argv
    capsys.readouterr()
    assert [key for key, count in calls.items() if not count] == []
