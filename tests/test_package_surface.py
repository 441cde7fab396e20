"""Every function, class, method and module-level name of the package is
used by the package itself or by the benchmark, and ``__init__`` binds
nothing but ``__version__``: the modules are the package's API.
``__version__`` is the version in ``pyproject.toml``.

Reference code that only tests need lives in ``tests/helpers.py``.  The
package sources (``__init__`` aside) and the non-test files of
``perfbench/`` are parsed with ``ast``, never imported.  A definition
counts as used when one of those files names it outside the definition's
own body:
* a top-level function or class, or a name bound by a top-level
  assignment, as a bare name, an attribute or a string literal (the
  benchmark's tracer looks names up by string);
* a method, unless it is a dunder, as an attribute or a string literal.

Dunders are exempt here because operators call them without naming them;
``test_arithmetic_dunders`` checks instead that the package calls every
arithmetic dunder it defines.

Names are matched by spelling, so a method is used when any class's method
of that name is.  ``__init__`` is checked on its syntax tree, not on
``vars(quivertl)``, which also lists the submodules imported so far.
"""

import ast
import re
from pathlib import Path

import quivertl

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "quivertl" / "__init__.py"
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = sorted(p for p in INIT.parent.glob("*.py") if p != INIT)
BENCHMARK = sorted(
    p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")
)


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def add_references(refs, path, tree):
    """Add every use of a name in ``tree`` to ``refs`` as
    ``refs[name] -> [(path, line, kind)]``; kind is "name", "attr" or
    "str"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name, kind = node.id, "name"
        elif isinstance(node, ast.Attribute):
            name, kind = node.attr, "attr"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name, kind = node.value, "str"
        else:
            continue
        refs.setdefault(name, []).append((path, node.lineno, kind))


def definitions(path, tree):
    """(path, node, name, qualified name, kinds that count as a use) for
    every top-level function and class and every non-dunder method."""
    out = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        out.append((path, node, node.name, node.name, {"name", "attr", "str"}))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    qualname = "%s.%s" % (node.name, item.name)
                    out.append((path, item, item.name, qualname, {"attr", "str"}))
    return out


def assignments(path, tree):
    """The same tuples for every name that a top-level assignment binds."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        kinds = {"name", "attr", "str"}
                        out.append((path, node, name.id, name.id, kinds))
    return out


def unused(collect):
    """Every binding that ``collect`` finds in the package and that nothing
    uses, as "module:qualified name"."""
    refs = {}
    defs = []
    for path in PACKAGE + BENCHMARK:
        tree = parse(path)
        add_references(refs, path, tree)
        if path in PACKAGE:
            defs += collect(path, tree)
    out = []
    for path, node, name, qualname, kinds in defs:
        if not any(
            kind in kinds
            and not (ref_path == path and node.lineno <= line <= node.end_lineno)
            for ref_path, line, kind in refs.get(name, ())
        ):
            out.append("%s:%s" % (path.stem, qualname))
    return out


def init_bindings():
    """Every name that ``__init__.py`` binds: by assignment, import or
    definition."""
    names = []
    for node in ast.walk(parse(INIT)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.alias):
            names.append((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
    return names


def test_sources_are_found():
    assert {p.stem for p in PACKAGE} >= {"cli", "decomposition", "geometry"}
    assert {p.stem for p in BENCHMARK} >= {"tracing", "worker", "gate"}


def test_every_definition_is_used_by_the_package_or_the_benchmark():
    assert unused(definitions) == []


def test_every_module_level_name_is_used_by_the_package_or_the_benchmark():
    assert unused(assignments) == []


def test_init_binds_only_the_version():
    assert init_bindings() == ["__version__"]


def test_version_is_the_project_version():
    # a regex, not tomllib, which Python 3.10 lacks
    project = PYPROJECT.read_text(encoding="utf-8").split("[project]", 1)[1]
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert quivertl.__version__ == version
