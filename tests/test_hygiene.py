"""Source hygiene, read off the syntax trees of the package: no config key
that nothing reads or that README's config table leaves out, no parameter
that its function never reads, no stored slot that nothing reads, no import
that nothing uses, no export that is not defined, and no benchmark phase
anchored on a function the package no longer calls."""

import ast
import re
from pathlib import Path

import pytest

import graphsfda

PACKAGE = Path(graphsfda.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
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


def unread_parameters(module):
    """`line: name` of each parameter of a `def` or `lambda` in `module`
    that its body never reads; `self`, `cls` and names starting with `_`
    are exempt."""
    for node in ast.walk(module):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
        read = {
            name.id
            for statement in body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        args = node.args
        for param in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
            if param is None or param.arg in ("self", "cls") or param.arg.startswith("_"):
                continue
            if param.arg not in read:
                yield f"{node.lineno}: {param.arg}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_parameter_is_read(name):
    unread = list(unread_parameters(TREES[name]))
    assert not unread, f"{name}.py has parameters its functions never read: {unread}"


def declared_slots():
    """`Class.slot` for each `__slots__` entry of a package class."""
    for module in TREES.values():
        for node in ast.walk(module):
            if not isinstance(node, ast.ClassDef):
                continue
            for statement in node.body:
                if isinstance(statement, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in statement.targets
                ):
                    for slot in ast.literal_eval(statement.value):
                        yield f"{node.name}.{slot}"


@pytest.mark.parametrize("slot", sorted(declared_slots()))
def test_every_slot_is_read(slot):
    name = slot.partition(".")[2]

    def is_read(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.ctx, ast.Load)
        )

    assert read_outside(None, is_read), f"{slot} is stored but never read"


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


def defined_names(module):
    """Names bound at the top level of `module`: definitions, assignments
    and imports."""
    names = set(imported_names(module))
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_export_is_defined(name):
    undefined = sorted(exported_names(TREES[name]) - defined_names(TREES[name]))
    assert not undefined, f"{name}.py exports {undefined} without defining them"


def readme_config_keys():
    """The keys in the first column of README's "Run config" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Run config\n", 1)[1].split("\n## ", 1)[0]
    keys = []
    for line in section.splitlines():
        if line.startswith("| `"):
            keys += re.findall(r"`(\w+)`", line.split("|")[1])
    return keys


def test_readme_config_table_lists_every_key():
    keys = readme_config_keys()
    assert len(keys) == len(set(keys)), keys
    assert sorted(keys) == sorted(ADAPT_FIELDS + EXTRA_KEYS)


def benchmark_phase_anchors():
    """The functions the benchmark's tracer opens and closes its phases on,
    read from `perfbench/tracer.py` without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PHASES" for t in node.targets
        ):
            phases = ast.literal_eval(node.value)
            return sorted({anchor for pair in phases.values() for anchor in pair})
    raise AssertionError("perfbench/tracer.py defines no PHASES")


@pytest.mark.parametrize("anchor", benchmark_phase_anchors())
def test_every_benchmark_phase_anchor_is_a_called_function(anchor):
    module, _, name = anchor.partition(".")
    assert module in TREES, f"{anchor}: no module {module}"
    definition = next(
        (
            node
            for node in TREES[module].body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ),
        None,
    )
    assert definition is not None, f"{anchor} is not a function of the package"

    def is_read(node):
        return isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)

    assert read_outside(definition, is_read), f"nothing in the package calls {anchor}"
