"""No test-only public helper: every public module-level function, class and
constant of the package, and every public method and property of its public
classes, is used by code outside the tests.

A helper whose only caller is a test gets a real caller or is deleted, and
its test moves with it.  Names count when code uses them (a name, an
attribute, an import) anywhere in src/, demos/ or perfbench/ other than the
statement that defines them; test files there do not count, and neither does
the package's ``__init__``, whose re-exports call nothing.  A method or
property counts when such code reads its name as an attribute.

Nor is any state write-only: every attribute a package class stores on
``self`` (or lists in its ``__slots__``) is read by such code, as an
attribute or through ``getattr`` or ``attrgetter``.
"""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).parents[1]
PACKAGE = REPO / "src" / "cesplit"
CALLERS = [REPO / "src", REPO / "demos", REPO / "perfbench"]


def caller_files():
    """The files whose code counts as a use: no tests, no re-exports."""
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            if not path.name.startswith("test_") and path != PACKAGE / "__init__.py":
                yield path


def defined_names(statement):
    """The public names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def used_names(statement):
    """Every name a statement's code mentions, each once."""
    out = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    uses = Counter()  # name -> module-level statements that mention it
    definitions = []
    for path in caller_files():
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            uses.update(used_names(statement))
            if path.parent == PACKAGE:
                definitions += [(path.name, name, statement)
                                for name in defined_names(statement)]
    assert len(definitions) > 50
    orphans = [f"{module}: {name}" for module, name, statement in definitions
               if uses[name] - (name in used_names(statement)) == 0]
    assert orphans == []


def public_members(statement):
    """The public methods and properties of a public module-level class."""
    if not isinstance(statement, ast.ClassDef) or statement.name.startswith("_"):
        return []
    return [node.name for node in statement.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_public_method_has_a_caller_outside_the_tests():
    attributes = set()
    members = []
    for path in caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes.update(node.attr for node in ast.walk(tree)
                          if isinstance(node, ast.Attribute))
        if path.parent == PACKAGE:
            members += [(path.name, statement.name, name) for statement in tree.body
                        for name in public_members(statement)]
    assert len(members) > 20
    orphans = [f"{module}: {cls}.{name}" for module, cls, name in members
               if name not in attributes]
    assert orphans == []


def stored_attributes(cls):
    """The attributes a class stores on ``self``, its ``__slots__`` included."""
    names = set()
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__slots__"):
            names.update(ast.literal_eval(node.value))
    return names


def read_attributes(tree):
    """The attribute names a module's code reads: ``x.name`` loads, and the
    names that ``getattr`` and ``attrgetter`` are given."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "attrgetter")):
            out.update(arg.value for arg in node.args
                       if isinstance(arg, ast.Constant) and isinstance(arg.value, str))
    return out


def test_every_stored_attribute_is_read_outside_the_tests():
    reads = set()
    stores = []
    for path in caller_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads |= read_attributes(tree)
        if path.parent == PACKAGE:
            stores += [(path.name, node.name, name) for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef) for name in stored_attributes(node)]
    assert len(stores) > 100
    orphans = [f"{module}: {cls}.{name}" for module, cls, name in stores if name not in reads]
    assert orphans == []
