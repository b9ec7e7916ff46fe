"""The package's exports: every name in ``temponet.__all__`` resolves,
and ``__all__`` lists every public name that ``temponet/__init__.py``
binds, so a deleted function cannot leave a stale export behind."""

import ast

import temponet


def test_every_exported_name_resolves():
    assert [name for name in temponet.__all__ if not hasattr(temponet, name)] == []
    assert len(set(temponet.__all__)) == len(temponet.__all__)


def test_all_lists_every_public_name_the_package_binds():
    with open(temponet.__file__) as fh:
        tree = ast.parse(fh.read())
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets if isinstance(target, ast.Name))
    # dunders such as __version__ are public; _private names and __all__ are not
    public = {name for name in bound - {"__all__"} if not name.startswith("_") or name.endswith("__")}
    assert public == set(temponet.__all__)
