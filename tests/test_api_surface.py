"""Every module-level name and public method in `src/cdckit` is reached by
the program.

A module-level function, class or constant must be referenced somewhere in
the package outside its own definition, or be named in a file under
`bench/` (the benchmark drives the package through those names), or be
the CLI entry point `cli.main` or `__version__`, or be reached from
outside in a way the text search cannot see (`EXEMPT` names each such
case).  So must each public
method of a class (one whose name has no leading underscore); as the
check does not know types, any attribute of that name counts.  Code that
only tests reach belongs with the tests (see `oracles.py`), not in the
package.
"""

from __future__ import annotations

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cdckit")
EXEMPT = {
    ("cli", "main"), ("__init__", "__version__"),
    ("cli", "_Parser.error"),  # argparse calls it on every usage error
    ("gf", "GF.mul"),  # the benchmark's `_probe_gf` times it as getattr(f, "mul")
}


def _definitions(tree: ast.Module):
    """(name, first line, last line) of each top-level def, class or
    constant, and of each public method, named `Class.method`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each name read or attribute taken in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _bench_text() -> str:
    texts = []
    for base, dirs, files in os.walk(os.path.join(ROOT, "bench")):
        dirs[:] = [d for d in dirs if d not in ("out", "__pycache__")]
        for name in files:
            if name.endswith((".py", ".md", ".json", ".txt")):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    texts.append(fh.read())
    return "\n".join(texts)


def unreached_names(package: str = PACKAGE) -> list:
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    refs = {mod: list(_references(tree)) for mod, tree in trees.items()}
    bench = _bench_text()
    unreached = []
    for mod, tree in trees.items():
        for qualified, first, last in _definitions(tree):
            cls, _, name = qualified.rpartition(".")
            # the benchmark reaches a method as an attribute, `.name`
            in_bench = ("[.]" if cls else r"\b") + re.escape(name) + r"\b"
            if (mod, qualified) in EXEMPT or re.search(in_bench, bench):
                continue
            if not any(ref == name and (other != mod or not first <= line <= last)
                       for other, found in refs.items() for ref, line in found):
                unreached.append(f"{mod}.{qualified}")
    return unreached


def test_every_package_name_is_reached():
    assert unreached_names() == []


def test_methods_are_checked(tmp_path):
    # a method reached only from its own body is flagged; one reached
    # through an attribute elsewhere in the package is not
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def used(self):\n        return 1\n"
        "    def stranded(self):\n        return self.stranded()\n"
        "    def _private(self):\n        pass\n"
        "A().used()\n")
    assert unreached_names(str(tmp_path)) == ["mod.A.stranded"]


def test_search_signature_is_pinned():
    # the search's pruning is exact and always on: no keyword may switch it
    # off or pick a second search path
    import inspect

    from cdckit.bounds import optimize_parameters

    params = inspect.signature(optimize_parameters).parameters.values()
    assert [(p.name, p.kind, p.default) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default) for name, default in (
            ("q", inspect.Parameter.empty), ("n", inspect.Parameter.empty),
            ("d", inspect.Parameter.empty), ("k", inspect.Parameter.empty),
            ("family", inspect.Parameter.empty), ("registry", None), ("target", None))]
