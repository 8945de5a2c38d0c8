"""Only ``cli.py`` writes files.

Every artifact leaves the package through the CLI's one writer, which
resolves ``--out`` and ``$STABDECOMP_OUTDIR`` and creates the output
directory.  No other module under ``src/stabdecomp`` opens a file for
writing.  The one exception is ``Decomposition.save``, which the README's
"Library API" list offers for use from Python.

The check reads the source: a call to ``open`` counts as a write unless its
mode is a string of "r", "b" and "t" (or it has none), and so does a call
of a method that writes a file without ``open``, such as ``write_text``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stabdecomp"
ALLOWED = {"decomposition.Decomposition.save"}

# calls that write a file without an open() call
_WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez", "savez_compressed", "savetxt"}


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in _WRITERS:
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "os":
        return True  # os.open takes flags
    # open(file, mode) for the builtin, path.open(mode) for a method
    modes = call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    modes += [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) <= set("rbt"))
        for mode in modes
    )


def _file_writes(tree: ast.AST, scope: str):
    """(qualified scope, line) of each call under tree that writes a file."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = "%s.%s" % (scope, node.name)
        elif isinstance(node, ast.Call) and _writes_a_file(node):
            yield scope, node.lineno
        yield from _file_writes(node, inner)


def _package_writes():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "cli.py":
            yield from _file_writes(ast.parse(path.read_text()), path.stem)


def test_only_the_cli_writes_files():
    found = ["%s (line %d)" % (scope, line) for scope, line in _package_writes() if scope not in ALLOWED]
    assert not found, "files written outside cli.py: %s" % ", ".join(found)


def test_the_exception_writes_and_is_library_api():
    assert {scope for scope, _ in _package_writes()} == ALLOWED
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library API$(.*?)(?=^## |\Z)", text, re.M | re.S).group(1)
    assert set(re.findall(r"^- `([\w.]+)", section, re.M)) >= ALLOWED


def test_the_check_sees_writes():
    source = """
def f(p, q):
    open(p)
    open(p, "rb")
    open(p, mode="r")
    q.open()
    open(p, "w")
    open(p, mode="a")
    open(p, "r+")
    open(p, MODE)
    q.open("wb")
    os.open(p, os.O_WRONLY)
    q.write_text("x")
    np.save(p, q)
"""
    lines = [line for _, line in _file_writes(ast.parse(source), "m")]
    assert lines == list(range(7, 15))
