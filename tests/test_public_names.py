"""Every public name of the package has a caller inside the package.

A name a module lists in ``__all__`` must be read somewhere under
``src/mhd1d`` outside ``__init__.py``, whose re-exports call nothing.  A
library-only name needs an entry in ``WITHOUT_CALLER`` with its reason.
"""

import ast
from pathlib import Path

import mhd1d

PACKAGE = Path(mhd1d.__file__).parent

WITHOUT_CALLER = {
    ("solver", "load_checkpoint"): "reads the product's own state_final.txt back",
    ("diagnostics", "nu_independence_report"):
        "acceptance criterion 3's audit; ROADMAP item 4 wires it into the sweep",
}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _read_names(trees) -> set[str]:
    """Every name loaded, or read as an attribute, in the given module trees."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
    read = _read_names(tree for name, tree in modules.items() if name != "__init__")
    uncalled = {(module, name) for module, tree in modules.items()
                for name in _exported(tree) if name not in read}
    assert uncalled == set(WITHOUT_CALLER)


def test_the_scan_sees_an_uncalled_name():
    # a name listed in __all__ and read nowhere is reported; read once, it is not
    tree = ast.parse("def orphan():\n    pass\n\n__all__ = ['orphan']\n")
    assert _exported(tree) == ["orphan"]
    assert "orphan" not in _read_names([tree])
    assert "orphan" in _read_names([tree, ast.parse("orphan()")])
