"""Every function and method in ``src/stabdecomp`` has a caller, and every
public module-level class and constant a reader.

A caller of a public one is a reference in ``src/`` or ``bench/`` (a name
read or an attribute; in ``bench/`` also a dotted string, such as a tracer
hook), or an entry in the README's "Library API" list, which names the
operations the library offers without calling them itself.  A caller of a
private function is a reference in ``src/``.  Tests do not count: code and
data that only tests reach belong in the tests.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stabdecomp"


def _definitions():
    """(qualified name, name) of each top-level function and method, dunder methods aside."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield "%s.%s" % (module, node.name), node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not re.fullmatch(r"__\w+__", item.name):
                        yield "%s.%s.%s" % (module, node.name, item.name), item.name


def _module_names():
    """(qualified name, name) of each module-level class and constant (an assigned name)."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                yield "%s.%s" % (module, node.name), node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            yield "%s.%s" % (module, name.id), name.id


def _public_definitions():
    """(qualified name, name) of each public function, method, class and constant."""
    everything = [*_definitions(), *_module_names()]
    return [(qualified, name) for qualified, name in everything if not name.startswith("_")]


def _referenced_names(tops=("src", "bench")) -> set[str]:
    names: set[str] = set()
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    top == "bench"
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and re.fullmatch(r"[\w\[\]*]+(\.[\w\[\]*]+)+", node.value)
                ):
                    names.update(re.findall(r"\w+", node.value))
    return names


def _readme_api() -> set[str]:
    """The names the README's "Library API" section lists, one per bullet that
    opens with it in backticks, e.g. ``gadget.check_reduction``."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library API$(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert section, "README.md has no '## Library API' section"
    return set(re.findall(r"^- `([\w.]+)", section.group(1), re.M))


def test_every_public_function_has_a_caller_or_is_documented():
    referenced = _referenced_names()
    api = _readme_api()
    orphans = [
        qualified
        for qualified, name in _public_definitions()
        if name not in referenced and qualified not in api
    ]
    assert not orphans, (
        "public functions, classes or constants with no reference in src/ or bench/ "
        "and no entry in the README's Library API list: %s" % ", ".join(orphans)
    )


def test_readme_api_names_exist():
    defined = {qualified for qualified, _ in _public_definitions()}
    missing = sorted(_readme_api() - defined)
    assert not missing, "README Library API names nothing defined: %s" % ", ".join(missing)


def test_every_private_function_has_a_caller_in_src():
    referenced = _referenced_names(("src",))
    orphans = [qualified for qualified, name in _definitions() if name.startswith("_") and name not in referenced]
    assert not orphans, "private functions with no caller in src/: %s" % ", ".join(orphans)


# a hook CHANGES.md records as dead: its method is gone and its span reads 0 s
_DEAD_HOOKS = {"stabdecomp.gadget.SweepResult.to_json"}


def _bench_hooks():
    """The ``HOOKS`` tuple of ``bench/tracer.py``, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["HOOKS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no HOOKS tuple")


def test_every_bench_hook_resolves():
    # the tracer lists a hook it cannot find as absent and records nothing for
    # it, so a renamed function would silently zero its per-layer metric
    absent = []
    for module_name, path, _ in _bench_hooks():
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if attr.endswith("[*]"):
            table = getattr(owner, attr[:-3], None)
            found = isinstance(table, dict) and all(callable(fn) for fn in table.values())
        else:
            found = isinstance(inspect.getattr_static(owner, attr, None), types.FunctionType)
        if not found:
            absent.append("%s.%s" % (module_name, path))
    assert not set(absent) - _DEAD_HOOKS, "bench/tracer.py hooks that resolve to nothing: %s" % ", ".join(absent)
