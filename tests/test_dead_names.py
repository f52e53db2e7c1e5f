"""Guard against dead names in the library.

A module-level private name in src/chebykit must be referenced somewhere in
src/ other than its own definition, and a public module-level function
somewhere in src/ or tests/.  A function or class calling itself does not
count as a use.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "chebykit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _defined_name(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    return None


def _references(paths) -> set:
    """Identifiers read, imported or taken as attributes; a definition's references to itself are left out."""
    found = set()
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            names.discard(_defined_name(top))
            found |= names
    return found


def _definitions(paths):
    """(module, name, is_function) for every module-level def, class and assigned name."""
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            name = _defined_name(top)
            if name is not None:
                yield path.stem, name, not isinstance(top, ast.ClassDef)
                continue
            targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield path.stem, target.id, False


def dead_names(src=SRC, tests=TESTS) -> list:
    in_src = _references(src)
    in_tests = _references(tests)
    dead = []
    for module, name, is_function in _definitions(src):
        if name.startswith("__"):
            continue
        if name.startswith("_"):
            if name not in in_src:
                dead.append(f"{module}.{name}")
        elif is_function and name not in in_src | in_tests:
            dead.append(f"{module}.{name}")
    return dead


def test_no_dead_names():
    assert dead_names() == []


def test_guard_sees_an_unused_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "_USED = 1\n_UNUSED = 2\n\n"
        "def _loop(n):\n    return _loop(n - 1) if n else _USED\n\n"
        "def public():\n    return 0\n"
    )
    assert dead_names([module], []) == ["mod._UNUSED", "mod._loop", "mod.public"]
