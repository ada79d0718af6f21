"""No unused imports, and no module-level name or class member that the
package never uses.

Read with `ast` from the source files: a name counts as used where it is
loaded or imported by another module; a class member counts as used
where some module reads an attribute of its name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flunowcast"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
EXEMPT = {"__version__"}


def loaded(tree: ast.Module) -> set[str]:
    """Names read as variables or as attributes anywhere in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported(tree: ast.Module) -> list[tuple[str, str]]:
    """(bound name, imported name) of every import but `from __future__`."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs += [((a.asname or a.name).split(".")[0], a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            pairs += [(a.asname or a.name, a.name) for a in node.names]
    return pairs


def defined(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and assigned names."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, member) of each method, property, dataclass field or enum
    member of every class in `tree`, dunders aside."""
    pairs = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            pairs += [(cls.name, n) for n in names if not (n.startswith("__") and n.endswith("__"))]
    return pairs


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    tree = MODULES[module]
    unused = [bound for bound, _ in imported(tree) if bound not in loaded(tree)]
    assert unused == [], f"{module} imports {unused} without using them"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_module_level_name_is_used(module):
    used = set()
    for name, tree in MODULES.items():
        used |= loaded(tree)
        if name != module:
            used |= {original for _, original in imported(tree)}
    unused = [n for n in defined(MODULES[module]) if n not in used | EXEMPT]
    assert unused == [], f"{module} defines {unused}, which the package never uses"


def test_package_root_imports_nothing_and_defines_only_the_version():
    # names are imported from their modules, so the root has nothing to re-export
    tree = MODULES["__init__.py"]
    assert imported(tree) == []
    assert defined(tree) == ["__version__"]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_class_member_is_read(module):
    read = {node.attr for tree in MODULES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for cls, name in members(MODULES[module]) if name not in read]
    assert unread == [], f"{module} defines {unread}, which no module reads"
