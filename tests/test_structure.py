"""Structure guard over src/ptspin: where the dense tensor operators may be used
and which private names may cross module boundaries."""
import ast
from pathlib import Path

import ptspin

PACKAGE = Path(ptspin.__file__).parent
DENSE = {"exchange_operator", "embed_pair"}
# (module, name) pairs allowed to use a dense operator outside linalg: the
# documented three-particle Yang-Baxter reference.
DENSE_USERS = {("scattering", "ybe_residual")}
PRIVATE_SOURCES = {"bethe", "spectra"}
PRIVATE_IMPORTS = {("cli", "bethe", "_bethe")}


def modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def dense_uses(tree):
    """(enclosing top-level function or None, name) of every expression that
    names a dense operator; imports and __all__ strings are not uses."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name in DENSE:
                yield owner, name


def test_dense_operators_stay_in_linalg_and_the_ybe_reference():
    found = [(module, owner, name) for module, tree in modules() if module != "linalg"
             for owner, name in dense_uses(tree) if (module, owner) not in DENSE_USERS]
    assert found == []


def test_no_private_names_cross_from_bethe_or_spectra():
    found = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                found += [(module, source, alias.name) for alias in node.names
                          if source in PRIVATE_SOURCES and alias.name.startswith("_")]
    assert set(found) <= PRIVATE_IMPORTS
