"""detlink runs on the standard library alone."""

import ast
import pathlib
import sys

import pytest

import detlink

MODULES = sorted(pathlib.Path(detlink.__file__).parent.glob("*.py"))


def imported_top_names(path):
    """The top-level package of every absolute import in a module; relative
    imports stay inside detlink and are left out."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_every_module_is_seen():
    assert {p.stem for p in MODULES} >= {"__init__", "rings", "groebner",
                                         "idealops", "families", "checks"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_only_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"detlink"}
    assert sorted(set(imported_top_names(path)) - allowed) == []
