"""Budgets on the source tree itself."""

import ast
import os

import qdyb

# parameters with a default, over every function, method and lambda of the
# package: positional defaults plus keyword-only ones that have a default
MAX_DEFAULTED_PARAMETERS = 61


def test_defaulted_parameters_do_not_grow():
    """Each default is a knob that callers may leave unset: a new one
    must take the place of an old one."""
    root = os.path.dirname(qdyb.__file__)
    count = 0
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    assert count <= MAX_DEFAULTED_PARAMETERS, count
