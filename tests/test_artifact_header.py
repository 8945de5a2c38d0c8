"""Every artifact's header has one writer and one checker.

``stabilizer._payload`` is the one place that spells the ``stabdecomp-``
format prefix; every writer builds its payload's format and version through
it.  ``decomposition._check_header`` is the one place a loader checks them,
so a certificate and a decomposition refuse a wrong header in the same words.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from stabdecomp import known
from stabdecomp.certify import Certificate, certify_rank
from stabdecomp.decomposition import Decomposition
from stabdecomp.stabilizer import build_catalog, magic_power

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stabdecomp"


def _docstrings(tree: ast.AST) -> set[int]:
    """The ids of the docstring nodes of a module and of its classes and functions."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def test_one_literal_spells_the_format_prefix():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "stabdecomp-" in node.value
                and id(node) not in docs
            ):
                found.append((path.stem, node.value))
    assert found == [("stabilizer", "stabdecomp-")]


def _certificate_payload() -> dict:
    return certify_rank(magic_power("T3", 1), 2, build_catalog(3, 1)).to_payload()


def _decomposition_payload() -> dict:
    return known.FIXTURES["strange_m2"]().to_payload()


LOADERS = [
    ("certificate", Certificate.from_payload, _decomposition_payload),
    ("decomposition", Decomposition.from_payload, _certificate_payload),
]


@pytest.mark.parametrize("what, load, other", LOADERS, ids=[row[0] for row in LOADERS])
def test_both_loaders_refuse_a_header_in_the_same_words(what, load, other):
    payload = other()
    other_format = payload["format"]
    cases = [
        (payload, "%s field 'format' = %r is not %r" % (what, other_format, "stabdecomp-" + what)),
        ([], "a %s payload must be an object, not an array" % what),
        ({k: v for k, v in payload.items() if k != "format"}, "%s lacks the field 'format'" % what),
        (dict(payload, format=7), "%s field 'format' must be a string, not an integer" % what),
        (dict(payload, format="stabdecomp-" + what, version=2), "%s field 'version' = 2 is not 1" % what),
        (dict(payload, format="stabdecomp-" + what, version=True),
         "%s field 'version' must be an integer, not a boolean" % what),
    ]
    for body, message in cases:
        with pytest.raises(ValueError) as exc:
            load(body)
        assert str(exc.value) == message
