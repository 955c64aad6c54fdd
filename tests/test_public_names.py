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

And no module of the package touches another object's private state: a
``_name`` attribute is reached through ``self`` or ``cls`` alone.  Nor does
one import another module's ``_name``.

And no command of the CLI takes a flag it never reads: every option of a
command's parser is read off ``args`` by the function the command runs, or
by a function of ``cli`` that this one hands ``args`` to.

And no construction books its own polls: no module of the package but the
kernel names ``wake_at``, which is for scripted sources; a paced source is
polled on the schedule ``Kernel.pace`` gives the kernel.

And no exception class of the package is raised for the tests alone: each
is named in an ``except`` clause of such code.
"""

import argparse
import ast
import importlib
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


def private_reaches(tree):
    """The ``x._name`` attributes a module's code reaches through anything but
    ``self`` or ``cls``; dunders such as ``super().__init__`` are public."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))]


def test_no_module_reaches_into_another_objects_private_state():
    found = [f"{path.name}: {reach}" for path in sorted(PACKAGE.glob("*.py"))
             for reach in private_reaches(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_no_module_imports_another_modules_private_name():
    found = [f"{path.name}: {alias.name}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             for alias in node.names
             if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert found == []


def test_no_construction_books_its_own_polls():
    found = [f"{path.name}: {ast.unparse(node)}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "kernel.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "wake_at"]
    assert found == []


def caught_names(tree):
    """The exception names a module's ``except`` clauses name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            out.update(t.attr if isinstance(t, ast.Attribute) else t.id for t in types)
    return out


def test_every_exception_class_is_caught_outside_the_tests():
    caught = set()
    for path in caller_files():
        caught |= caught_names(ast.parse(path.read_text(encoding="utf-8")))
    classes = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            module = importlib.import_module(f"cesplit.{path.stem}")
            classes += [f"{path.name}: {name}" for name, value in vars(module).items()
                        if isinstance(value, type) and issubclass(value, BaseException)
                        and value.__module__ == module.__name__]
    assert len(classes) >= 4
    assert [c for c in classes if c.split(": ")[1] not in caught] == []


def leaf_parsers(parser, words=()):
    """Each command's parser, with the words that name it: a parser that
    branches into flavours is no command itself."""
    branches = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not branches:
        yield words, parser
    for action in branches:
        for word, child in action.choices.items():
            yield from leaf_parsers(child, words + (word,))


def args_reads(functions, name):
    """The fields of ``args`` that the function ``name`` reads, its lambdas
    included, with those of every function of ``functions`` named in a call
    that is handed ``args``."""
    reads, todo, seen = set(), [name], set()
    while todo:
        node = functions.get(todo.pop())
        if node is None or node.name in seen:
            continue
        seen.add(node.name)
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id == "args"):
                reads.add(sub.attr)
            elif isinstance(sub, ast.Call) and any(
                    isinstance(n, ast.Name) and n.id == "args"
                    for arg in sub.args for n in ast.walk(arg)):
                todo += [n.id for n in ast.walk(sub) if isinstance(n, ast.Name)]
    return reads


def test_no_command_takes_a_flag_it_never_reads():
    from cesplit.cli import build_parser

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = list(leaf_parsers(build_parser()))
    assert len(commands) == 10
    unread = {}
    for words, parser in commands:
        reads = args_reads(functions, parser.get_default("func").__name__)
        options = {a.dest for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)}
        if options - reads:
            unread[words] = sorted(options - reads)
    assert unread == {}
