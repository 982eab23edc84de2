"""Every error class the runtime declares is raised by it.

An error class that no other class extends is a leaf: code catches its base
class, but only code that raises the leaf can produce it.  So a guard deleted
without its class, or a class that nothing raises, fails here.
"""

import ast
from pathlib import Path

import pytest

from slasim import errors

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "slasim").glob("*.py"))

DECLARED = [
    value
    for value in vars(errors).values()
    if isinstance(value, type) and issubclass(value, errors.SimError)
]
LEAVES = sorted(
    cls.__name__
    for cls in DECLARED
    if not any(sub in DECLARED for sub in cls.__subclasses__())
)


def raised_names():
    """The name of every class that a ``raise`` statement in the runtime names."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


RAISED = raised_names()


def test_leaves_found():
    assert "NotOwner" in LEAVES and "ContractError" not in LEAVES


@pytest.mark.parametrize("name", LEAVES)
def test_every_leaf_error_is_raised(name):
    assert name in RAISED, f"nothing in src/ raises {name}"
