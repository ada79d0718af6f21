"""Every refusal of the package is a DataError, so the CLI catches that
one type and any other exception shows as a bug.

Read with `ast` from the source files: each `raise` re-raises, raises a
name the module imports from `.errors` (each branch of a conditional
expression alike), or, in the CLI's argparse types only,
`argparse.ArgumentTypeError`.
"""

import ast

import pytest

from .test_dead_code import MODULES


def error_names(tree: ast.Module) -> set[str]:
    """Names bound by `from .errors import ...` in `tree`."""
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "errors"
            for a in node.names}


def typed(exc: ast.expr, allowed: set[str], argparse_errors: bool) -> bool:
    """Whether `exc`, a raised expression, is one of the allowed errors."""
    if isinstance(exc, ast.IfExp):
        return all(typed(e, allowed, argparse_errors) for e in (exc.body, exc.orelse))
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id in allowed
    return (argparse_errors and isinstance(exc, ast.Attribute) and exc.attr == "ArgumentTypeError"
            and isinstance(exc.value, ast.Name) and exc.value.id == "argparse")


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_raise_is_a_data_error(module):
    tree = MODULES[module]
    allowed = error_names(tree)
    untyped = [f"{module}:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Raise) and node.exc is not None
               and not typed(node.exc, allowed, module == "cli.py")]
    assert untyped == [], f"raises of no error from .errors at {untyped}"
