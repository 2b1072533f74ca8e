"""Every module-level constant of the package is read by its code.

A tolerance or threshold that is declared but never loaded is a promise
the code does not keep.  The check walks the syntax trees of
``src/specshift/*.py``: each module-level UPPER_CASE name must be loaded,
as a bare name or as an attribute, somewhere in the package.  Strings do
not count, so a name that survives only in a docstring or in ``__all__``
fails.
"""

import ast
import re
from pathlib import Path

import specshift

PACKAGE = Path(specshift.__file__).resolve().parent
CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def module_trees():
    paths = sorted(PACKAGE.glob("*.py"))
    return {path.name: ast.parse(path.read_text(), str(path)) for path in paths}


def declared(tree):
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id):
                names.add(target.id)
    return names


def loaded(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_constant_is_loaded():
    trees = module_trees()
    used = set().union(*(loaded(tree) for tree in trees.values()))
    constants = {(module, name) for module, tree in trees.items() for name in declared(tree)}
    assert len(constants) > 40  # the walk found the package's constants
    assert sorted(c for c in constants if c[1] not in used) == []


def test_a_constant_left_in_strings_only_fails():
    source = '"""Uses _OLD_MIN."""\n__all__ = ["_OLD_MIN"]\n_OLD_MIN = 1e-6\nX = 2\nY = X\n'
    tree = ast.parse(source)
    assert declared(tree) == {"_OLD_MIN", "X", "Y"}
    assert declared(tree) - loaded(tree) == {"_OLD_MIN", "Y"}
