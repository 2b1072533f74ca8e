"""Every module-level constant and definition of the package is read by its
code, and every tolerance holds its ledger value.

A tolerance or threshold that is declared but never loaded is a promise
the code does not keep.  The check walks the syntax trees of
``src/specshift/*.py``: each module-level UPPER_CASE name must be loaded,
as a bare name or as an attribute, somewhere in the package.  Strings do
not count, so a name that survives only in a docstring or in ``__all__``
fails.  The same walk holds every top-level function and class, and every
method, to a load in the package: what only tests call lives under
``tests/`` (``tests/oracles.py``).

The ledger pins the value of every tolerance and threshold, so that a
loosened tolerance fails here even where the verdicts it decides still
pass.
"""

import ast
import importlib
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


# Defined in src/ but loaded by no src/ code: perfbench/ calls or spans the
# first seven, and argparse calls _Parser.error.
UNLOADED = {
    "adaptive_gk15",
    "spectral_cdf_unitary",
    "semispectral_cdf",
    "moment_residual",
    "eta_moment_linear",
    "TrigPolynomial.sup_norm_estimate",
    "verify_resolvent_formula",
    "_Parser.error",
}


def definitions(tree):
    # top-level functions and classes, and the methods of those classes;
    # Python itself calls the dunder methods
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}.{sub.name}"
                for sub in node.body
                if isinstance(sub, ast.FunctionDef) and not sub.name.endswith("__")
            )
    return names


def test_every_definition_is_loaded():
    trees = module_trees()
    used = set().union(*(loaded(tree) for tree in trees.values()))
    defined = set().union(*(definitions(tree) for tree in trees.values()))
    assert len(defined) > 100  # the walk found the package's definitions
    unloaded = {name for name in defined if name.rpartition(".")[2] not in used}
    assert sorted(unloaded - UNLOADED) == []
    assert sorted(UNLOADED - unloaded) == []  # an exemption that no longer holds goes


# Every tolerance and threshold that decides a verdict or a route: each
# module constant whose name contains TOL, FAIL, MIN or SLACK, and the two
# dilation degrees.  A change to one of these values is an edit here.
PINNED = re.compile(r"TOL|FAIL|MIN|SLACK")
LEDGER = {
    ("cayley", "CIRCLE_TOL"): 1e-6,
    ("cayley", "DISSIPATIVE_PSD_TOL"): 1e-10,
    ("cayley", "EIGENVALUE_ONE_TOL"): 1e-9,
    ("cayley", "REAL_LINE_TOL"): 1e-4,
    ("cayley", "RESOLVENT_DEGREE"): 36,
    ("cayley", "RESOLVENT_TOL"): 1e-5,
    ("cayley", "TRANSFORM_UNITARY_TOL"): 1e-9,
    ("cli", "DILATION_TOL"): 1e-9,
    ("cli", "OVERSHOOT_MIN"): 1e-8,
    ("cli", "REMAINDER_SLACK"): 1e-10,
    ("cli", "SCHAFFER_TOL"): 1e-10,
    ("cli", "TRUNCATION_GAP_TOL"): 1e-12,
    ("cli", "UNITARY_CONTROL_TOL"): 1e-6,
    ("dilation", "UNITARITY_FAIL"): 1e-8,
    ("opcore", "CONTRACTION_TOL"): 5e-11,
    ("opcore", "HERMITIAN_TOL"): 1e-10,
    ("opcore", "UNITARY_TOL"): 1e-8,
    ("semispectral", "CLUSTER_TOL"): 1e-9,
    ("semispectral", "MASS_TOL"): 1e-9,
    ("semispectral", "MOMENT_FAIL"): 1e-7,
    ("semispectral", "_CIRCULANT_MIN"): 1e-2,
    ("semispectral", "_DROP_TOL"): 1e-12,
    ("semispectral", "_VECTOR_FAIL"): 1e-8,
    ("semispectral", "_VECTOR_TOL"): 1e-12,
    ("shift", "BOUND_SLACK"): 1e-6,
    ("shift", "DEGREE_MARGIN"): 2,
    ("shift", "QUAD_TOL"): 1e-10,
    ("shift", "TRACE_TOL_LINEAR"): 1e-8,
    ("shift", "TRACE_TOL_MULT"): 1e-7,
    ("truncate", "BASIS_UNITARY_TOL"): 1e-9,
    ("truncate", "NORMALITY_TOL"): 1e-9,
}


def test_every_tolerance_is_in_the_ledger():
    trees = module_trees()
    pinned = {
        (Path(module).stem, name)
        for module, tree in trees.items()
        for name in declared(tree)
        if PINNED.search(name)
    }
    assert len(pinned) > 20  # the walk found the tolerances
    assert sorted(pinned - LEDGER.keys()) == []


def test_tolerances_hold_their_ledger_values():
    values = {
        (module, name): getattr(importlib.import_module(f"specshift.{module}"), name)
        for module, name in LEDGER
    }
    assert values == LEDGER
