"""Budgets on the source tree itself."""

import ast
import os
import re

import qdyb

# parameters with a default, over every function, method and lambda of the
# package: positional defaults plus keyword-only ones that have a default
MAX_DEFAULTED_PARAMETERS = 55


def _trees():
    """(file name, parsed module) for each source file of the package."""
    root = os.path.dirname(qdyb.__file__)
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                yield name, ast.parse(fh.read())


def test_defaulted_parameters_do_not_grow():
    """Each default is a knob that callers may leave unset: a new one
    must take the place of an old one."""
    count = 0
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    assert count <= MAX_DEFAULTED_PARAMETERS, count


# a verdict flag or a first-witness slot, as hand-written folds name them
FOLD_NAME = re.compile(r"(ok|agree|wit)(_\w+)?\Z")


def test_no_hand_written_verdict_folds():
    """A record folds its comparisons in `checks.tally`: no function
    starts a flag (ok, ok_*, agree) at True or a witness (wit, wit_*) at
    None to fold a loop by hand."""
    found = []
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                else:
                    continue
                if not (isinstance(node.value, ast.Constant) and (
                        node.value.value is True
                        or node.value.value is None)):
                    continue
                found.extend("%s:%d %s" % (name, node.lineno, t.id)
                             for t in targets if isinstance(t, ast.Name)
                             and FOLD_NAME.match(t.id))
    assert not found, found
