"""The benchmark's tracer still binds to the library.

``perfbench/tracer.py`` wraps library functions by name, with no default,
and its hooks read arguments by position or keyword.  A renamed function
or a moved argument breaks ``--trace 1`` while the untraced benchmark
still runs.  The tracer is read with ``ast``, not imported.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _assigned(tree: ast.Module, name: str) -> ast.expr:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"{TRACER} assigns no {name}")


TREE = ast.parse(TRACER.read_text())
SPANS = ast.literal_eval(_assigned(TREE, "SPANS"))
COUNTED = ast.literal_eval(_assigned(TREE, "COUNTED"))


def _hook_arguments() -> set[tuple[str, int, str]]:
    """(traced name, position, name) of every ``_arg(a, k, pos, name)``
    read in a hook of HOOKS."""
    hooks = _assigned(TREE, "HOOKS")
    assert isinstance(hooks, ast.Dict)
    out = set()
    for key, value in zip(hooks.keys, hooks.values):
        for call in ast.walk(value):
            if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "_arg"):
                pos, name = (ast.literal_eval(a) for a in call.args[2:4])
                out.add((ast.literal_eval(key), pos, name))
    return out


HOOK_ARGUMENTS = sorted(_hook_arguments())


def _function(traced: str):
    module, name = traced.split(".")
    return getattr(importlib.import_module(f"diskrig.{module}"), name)


@pytest.mark.parametrize("traced", [f"{m}.{n}" for table in (SPANS, COUNTED)
                                    for m, names in table.items() for n in names])
def test_every_traced_name_resolves(traced):
    assert callable(_function(traced))


def test_hooks_read_the_stated_arguments():
    assert HOOK_ARGUMENTS == sorted({
        ("cli.write_report", 1, "path"),
        ("greenpj.green", 2, "w"),
        ("metric.curvature_grid", 1, "zs"),
        ("numerics.quadrature_disk", 0, "grid"),
    })


@pytest.mark.parametrize("traced, pos, name", HOOK_ARGUMENTS)
def test_hook_argument_matches_the_signature(traced, pos, name):
    assert traced.split(".")[1] in SPANS[traced.split(".")[0]]
    params = list(inspect.signature(_function(traced)).parameters.values())
    assert len(params) > pos
    assert params[pos].name == name
    assert params[pos].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
