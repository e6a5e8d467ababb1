"""The package namespace: what `import uwloc` exposes, and no code only tests use."""

import ast
import re
from pathlib import Path

import uwloc

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(uwloc.__file__).resolve().parent


def library_use_imports() -> list[str]:
    """The names the README's "Library use" example imports from uwloc."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    found = re.findall(r"from uwloc import (\([^)]*\)|.*)", section)
    return [name.strip(" \n()") for names in found for name in names.split(",")
            if name.strip(" \n()")]


def test_exposes_what_the_readme_imports():
    names = library_use_imports()
    assert "load_config" in names and "run_experiment" in names
    assert [name for name in names if not hasattr(uwloc, name)] == []


def defined_names(tree: ast.Module) -> list[str]:
    """The names a module's top-level statements define."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)]
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names a module reads, takes as an attribute or imports; docstrings,
    comments and assignment targets are no use."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_package_defines_nothing_only_tests_use():
    """Every top-level name of a uwloc module is used in the package, an
    export of uwloc/__init__.py counting as its import there; test
    references live in tests/oracles.py."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(used_names, trees.values()))
    unused = [f"{module}:{name}" for module, tree in trees.items()
              if module != "__init__.py"
              for name in defined_names(tree) if name not in used]
    assert not unused, f"defined in uwloc but used only outside it: {unused}"
