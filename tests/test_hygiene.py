"""Source hygiene, read off the syntax trees of the package: no config key
that nothing reads, and no import that nothing uses."""

import ast
from pathlib import Path

import pytest

import graphsfda

PACKAGE = Path(graphsfda.__file__).parent
TREES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def module_definition(module, name):
    """The top-level class or assignment that defines `name` in `module`."""
    for node in TREES[module].body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node
    raise AssertionError(f"{module}.{name} not found")


def read_outside(definition, is_read) -> bool:
    """Whether some node of the package outside `definition` satisfies `is_read`."""
    stack = list(TREES.values())
    while stack:
        node = stack.pop()
        if node is definition:
            continue
        if is_read(node):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


ADAPT_CONFIG = module_definition("driver", "AdaptConfig")
ADAPT_FIELDS = [
    node.target.id for node in ADAPT_CONFIG.body if isinstance(node, ast.AnnAssign)
]
EXTRA_DEFAULTS = module_definition("cli", "_EXTRA_DEFAULTS")
EXTRA_KEYS = [key.value for key in EXTRA_DEFAULTS.value.keys]


@pytest.mark.parametrize("field", ADAPT_FIELDS)
def test_every_adapt_config_field_is_read(field):
    def is_read(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == field
            and isinstance(node.ctx, ast.Load)
        )

    assert read_outside(ADAPT_CONFIG, is_read), f"AdaptConfig.{field} is never read"


@pytest.mark.parametrize("key", EXTRA_KEYS)
def test_every_extra_config_key_is_read(key):
    def is_read(node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            return isinstance(node.slice, ast.Constant) and node.slice.value == key
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and bool(node.args)
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == key
        )

    assert read_outside(EXTRA_DEFAULTS, is_read), f"config key {key!r} is never read"


def imported_names(module):
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


def exported_names(module):
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used_or_exported(name):
    module = TREES[name]
    used = {
        node.id
        for node in ast.walk(module)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = exported_names(module)
    unused = [
        imported
        for imported in imported_names(module)
        if imported not in used and imported not in exported
    ]
    assert not unused, f"{name}.py imports {unused} without using them"
