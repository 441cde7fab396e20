"""Every function, class and method of the package is used by the package
itself or by the benchmark.

Reference code that only tests need lives in ``tests/helpers.py``.  The
package sources (``__init__`` aside) and the non-test files of
``perfbench/`` are parsed with ``ast``, never imported.  A definition
counts as used when one of those files names it outside the definition's
own body:
* a top-level function or class as a bare name, an attribute or a string
  literal (the benchmark's tracer looks names up by string);
* a method, unless it is a dunder, as an attribute or a string literal.

Names are matched by spelling, so a method is used when any class's method
of that name is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(
    p for p in (ROOT / "src" / "quivertl").glob("*.py") if p.name != "__init__.py"
)
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
    """(path, node, qualified name, kinds that count as a use) for every
    top-level function and class and every non-dunder method."""
    out = []
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        out.append((path, node, node.name, {"name", "attr", "str"}))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out.append(
                        (path, item, "%s.%s" % (node.name, item.name), {"attr", "str"})
                    )
    return out


def unused_definitions():
    refs = {}
    defs = []
    for path in PACKAGE + BENCHMARK:
        tree = parse(path)
        add_references(refs, path, tree)
        if path in PACKAGE:
            defs += definitions(path, tree)
    unused = []
    for path, node, qualname, kinds in defs:
        if not any(
            kind in kinds
            and not (ref_path == path and node.lineno <= line <= node.end_lineno)
            for ref_path, line, kind in refs.get(node.name, ())
        ):
            unused.append("%s:%s" % (path.stem, qualname))
    return unused


def test_sources_are_found():
    assert {p.stem for p in PACKAGE} >= {"cli", "decomposition", "geometry"}
    assert {p.stem for p in BENCHMARK} >= {"tracing", "worker", "gate"}


def test_every_definition_is_used_by_the_package_or_the_benchmark():
    assert unused_definitions() == []
