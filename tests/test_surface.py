"""The package surface: `src/ctlab` holds only what a ctlab command reaches."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# the north star names loaded worlds; no command loads one yet
UNREACHED = {"world.load_world"}


def _modules():
    return {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "ctlab").glob("*.py"))}


def _definitions(tree):
    return [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]


def test_every_public_definition_is_used_in_the_package():
    # a use is a name read anywhere in src/ctlab outside the definition itself;
    # imports and the strings of __all__ are not uses
    modules = _modules()
    unused = set()
    for mod, tree in modules.items():
        for definition in _definitions(tree):
            if definition.name.startswith("_"):
                continue
            inside = {id(n) for n in ast.walk(definition)}
            if not any(
                isinstance(n, ast.Name) and n.id == definition.name and id(n) not in inside
                for other in modules.values()
                for n in ast.walk(other)
            ):
                unused.add(f"{mod}.{definition.name}")
    assert unused == UNREACHED


def test_test_oracles_stay_out_of_the_package():
    oracles = {n.name for n in _definitions(ast.parse((ROOT / "tests" / "oracles.py").read_text()))}
    for mod, tree in _modules().items():
        assert not oracles & {n.name for n in _definitions(tree)}, mod
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(name.split(".")[-1] == "oracles" for name in names), mod
