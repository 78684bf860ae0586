"""Structure guard over src/ptspin: no module defines or uses the dense tensor
operators, no private name crosses from bethe or spectra, and each public name
comes from the module that defines it."""
import ast
from pathlib import Path

import pytest

import ptspin

PACKAGE = Path(ptspin.__file__).parent
DENSE = {"exchange_operator", "embed_pair"}
PRIVATE_SOURCES = {"bethe", "spectra"}


def modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_used(tree):
    """Every name or attribute an expression names; imports and __all__
    strings are not uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def definitions(tree):
    """Names a module binds at top level by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def listed(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            yield from (element.value for element in node.value.elts)


def test_no_module_defines_or_uses_the_dense_operators():
    """The dense references live in tests/conftest.py only."""
    found = [(module, name) for module, tree in modules()
             for name in (*names_used(tree), *definitions(tree)) if name in DENSE]
    assert found == []


def test_no_module_calls_kron():
    assert [module for module, tree in modules() if "kron" in set(names_used(tree))] == []


def test_public_names_come_from_their_defining_module():
    """Each module's __all__ lists only its own definitions, and the package's
    export table names, for every exported name, the module that defines it."""
    trees = dict(modules())
    defined = {module: set(definitions(tree)) for module, tree in trees.items()}
    found = [(module, name) for module, tree in trees.items() if module != "__init__"
             for name in listed(tree) if name not in defined[module]]
    found += [("__init__", module, name) for name, module in ptspin._EXPORTS.items()
              if name not in defined[module]]
    assert found == []


def test_package_lists_its_exports_and_refuses_unknown_names():
    assert ptspin.__all__ == [*ptspin._EXPORTS, "__version__"]
    assert set(ptspin.__all__) <= set(dir(ptspin))
    with pytest.raises(AttributeError, match="no_such_name"):
        ptspin.no_such_name
    # An unknown name falls through to the submodule import.
    from ptspin import cli
    assert cli.__name__ == "ptspin.cli"


def test_no_private_names_cross_from_bethe_or_spectra():
    found = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                found += [(module, source, alias.name) for alias in node.names
                          if source in PRIVATE_SOURCES and alias.name.startswith("_")]
    assert found == []
