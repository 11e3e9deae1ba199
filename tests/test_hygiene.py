"""Source hygiene: every name a ``spp_dcj`` module imports is used there,
every local a function assigns and every parameter it takes is read
somewhere in it, every function is referenced somewhere in the project,
no two functions have the same body, every command-line option is read by
the CLI, and only ``ilp._gc_paused`` switches the garbage collector."""

import argparse
import ast
import copy
import pathlib
import re

import pytest

from spp_dcj import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spp_dcj"
MODULES = sorted(PACKAGE.glob("*.py"))
# the code that may call a function of the package; this file's toy
# modules name functions that do not exist
CALLERS = sorted(path for part in ("src", "tests", "demos", "perfbench")
                 for path in (ROOT / part).rglob("*.py")
                 if path != pathlib.Path(__file__).resolve())
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _imported(tree):
    """(bound name, line) of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner)
                        if isinstance(n, ast.Name))
    return used


def test_package_modules_found():
    assert PACKAGE / "cli.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in _imported(tree) if name not in used]
    assert not unused, "%s imports unused names: %s" % (path.name,
                                                         ", ".join(unused))


def _dead_locals(tree):
    """(function, name, line) of every local that a function (or a function
    nested in it) stores but never reads.  Names starting with ``_`` are
    deliberate throwaways; ``global``/``nonlocal`` names count as read."""
    dead = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        dead.update((func.name, name, line) for name, line in stored.items()
                    if name not in read and not name.startswith("_"))
    return sorted(dead, key=lambda entry: entry[2])


def test_dead_local_check_catches_unread_names():
    tree = ast.parse("def f(xs):\n"
                     "    unused = len(xs)\n"
                     "    for key, value in xs:\n"
                     "        total = value\n"
                     "    _, kept = xs\n"
                     "    return kept\n")
    assert _dead_locals(tree) == [("f", "unused", 2), ("f", "key", 3),
                                  ("f", "total", 4)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    dead = ["%s in %s (line %d)" % (name, func, line)
            for func, name, line in _dead_locals(tree)]
    assert not dead, "%s assigns locals it never reads: %s" % (
        path.name, ", ".join(dead))


def _unused_parameters(tree):
    """(function, parameter, line) of every parameter a function (or a
    function nested in it) never reads.  ``self``, ``cls``, dunder methods
    and names starting with ``_`` are exempt."""
    unused = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if func.name.startswith("__") and func.name.endswith("__"):
            continue
        args = func.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg]
        read = {node.id for stmt in func.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        unused.update((func.name, arg.arg, arg.lineno) for arg in params
                      if arg.arg not in read
                      and arg.arg not in ("self", "cls")
                      and not arg.arg.startswith("_"))
    return sorted(unused, key=lambda entry: (entry[2], entry[1]))


def test_unused_parameter_check_catches_unread_names():
    tree = ast.parse("class C:\n"
                     "    def __init__(self, x):\n"
                     "        pass\n"
                     "    def m(self, a, b=1, *rest, _c, **extra):\n"
                     "        def inner(d):\n"
                     "            return a + d\n"
                     "        return inner\n")
    assert _unused_parameters(tree) == [("m", "b", 4), ("m", "extra", 4),
                                        ("m", "rest", 4)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = ["%s of %s (line %d)" % (name, func, line)
              for func, name, line in _unused_parameters(tree)]
    assert not unused, "%s has parameters it never reads: %s" % (
        path.name, ", ".join(unused))


def _defined_functions(tree):
    """(name, line) of every function and method ``tree`` defines, dunder
    methods exempt."""
    return sorted(((node.name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and not (node.name.startswith("__")
                            and node.name.endswith("__"))),
                  key=lambda entry: entry[1])


def _referenced_names(tree):
    """Names ``tree`` reads, bare or as an attribute, and each part of
    every string that is a dotted name: a ``monkeypatch.setattr`` target or
    a traced span such as ``"solver.solve_internal"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED_NAME.fullmatch(node.value):
            names.update(node.value.split("."))
    return names


def test_uncalled_function_check_catches_unreferenced_names():
    toy = ast.parse("class Log:\n"
                    "    def __init__(self):\n"
                    "        self.entries = []\n"
                    "    def append(self, entry):\n"
                    "        self.entries.append(entry)\n"
                    "    def restore(self, mark):\n"
                    "        del self.entries[mark:]\n"
                    "def imported():\n"
                    "    pass\n"
                    "def patched():\n"
                    "    pass\n"
                    "def traced():\n"
                    "    pass\n"
                    "def recursive(n):\n"
                    "    return n and recursive(n - 1)\n")
    caller = ast.parse("from toy import imported\n"
                       "monkeypatch.setattr(toy, 'patched', None)\n"
                       "SPANS = ('toy.traced',)\n"
                       "'Log.restore is named in a sentence only'\n"
                       "restore = Log().append\n")
    referenced = _referenced_names(toy) | _referenced_names(caller)
    assert [(name, line) for name, line in _defined_functions(toy)
            if name not in referenced] == [("restore", 6), ("imported", 8)]


def test_every_function_is_called():
    referenced = set()
    for path in CALLERS:
        referenced |= _referenced_names(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    uncalled = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        uncalled += ["%s:%d %s" % (path.name, line, name)
                     for name, line in _defined_functions(tree)
                     if name not in referenced]
    assert not uncalled, ("functions nothing references: %s"
                          % ", ".join(uncalled))


def _body_keys(tree):
    """(key, name, line) of every function ``tree`` defines; the key is the
    dump of its body without the docstring, parameters renamed by position,
    so two functions that differ only in those have one key."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        args = func.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [arg for arg in (args.vararg, args.kwarg) if arg]
        position = {arg.arg: "_%d" % k for k, arg in enumerate(params)}
        module = ast.Module(body=copy.deepcopy(body), type_ignores=[])
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and node.id in position:
                node.id = position[node.id]
        yield ast.dump(module), func.name, func.lineno


def _duplicate_bodies(trees):
    """Groups, two or more entries each, of the ``module:line name`` of
    functions that share a body key; ``trees`` maps module names to ASTs."""
    groups = {}
    for module, tree in trees.items():
        for key, name, line in _body_keys(tree):
            groups.setdefault(key, []).append("%s:%d %s" % (module, line,
                                                             name))
    return sorted(group for group in groups.values() if len(group) > 1)


def test_duplicate_body_check_catches_renamed_copies():
    toy = ast.parse("def fmt(value):\n"
                    "    if value == int(value):\n"
                    "        return '%d' % int(value)\n"
                    "    return repr(value)\n"
                    "class Writer:\n"
                    "    def weight(self, w):\n"
                    "        if w == int(w):\n"
                    "            return '%d' % int(w)\n"
                    "        return repr(w)\n")
    other = ast.parse("def show(w):\n"
                      "    'A documented copy.'\n"
                      "    if w == int(w):\n"
                      "        return '%d' % int(w)\n"
                      "    return repr(w)\n"
                      "def near(w, scale):\n"
                      "    if w == int(w):\n"
                      "        return '%d' % int(scale)\n"
                      "    return repr(w)\n")
    # Writer.weight reads its second parameter, fmt and show their first
    assert _duplicate_bodies({"toy": toy, "other": other}) == [
        ["toy:1 fmt", "other:1 show"]]


def test_no_duplicate_function_bodies():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path)) for path in MODULES}
    duplicates = _duplicate_bodies(trees)
    assert not duplicates, "functions with the same body: %s" % "; ".join(
        ", ".join(group) for group in duplicates)


def _unread_options(parser, tree):
    """``dest`` of every action of ``parser`` and its subcommands that
    ``tree`` never reads as ``args.<dest>``.  ``help``, ``version`` and the
    subcommand choice itself are exempt."""
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    unread = set()
    parsers = [parser]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.dest not in read:
                unread.add(action.dest)
    return sorted(unread - {"help", "version", "command"})


def test_unread_option_check_catches_unread_options():
    parser = argparse.ArgumentParser()
    parser.add_argument("--version", action="version", version="0")
    sub = parser.add_subparsers(dest="command")
    p = sub.add_parser("one")
    p.add_argument("path")
    p.add_argument("--no-frills", action="store_true")
    sub.add_parser("two").add_argument("--count", dest="how_many", type=int)
    tree = ast.parse("def run(args):\n"
                     "    return args.path, other.how_many\n")
    assert _unread_options(parser, tree) == ["how_many", "no_frills"]


def test_every_cli_option_is_read():
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unread = _unread_options(cli.make_parser(), tree)
    assert not unread, "cli.py never reads options: %s" % ", ".join(unread)


def _collector_switches(tree, owner="_gc_paused"):
    """(function, line) of every ``gc.disable()`` or ``gc.enable()`` call
    outside a function named ``owner``; None stands for module level."""
    owned = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and func.name == owner:
            owned.update(id(node) for node in ast.walk(func))
    enclosing = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                enclosing.setdefault(id(node), func.name)
    return sorted(
        ((enclosing.get(id(node)), node.lineno) for node in ast.walk(tree)
         if isinstance(node, ast.Call)
         and isinstance(node.func, ast.Attribute)
         and node.func.attr in ("disable", "enable")
         and isinstance(node.func.value, ast.Name)
         and node.func.value.id == "gc" and id(node) not in owned),
        key=lambda entry: entry[1])


def test_collector_switch_check_catches_other_owners():
    tree = ast.parse("import gc\n"
                     "def _gc_paused():\n"
                     "    gc.disable()\n"
                     "    gc.enable()\n"
                     "def solve():\n"
                     "    gc.disable()\n"
                     "    gc.collect()\n"
                     "gc.enable()\n")
    assert _collector_switches(tree) == [("solve", 6), (None, 8)]


def test_collector_state_has_one_owner():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = "_gc_paused" if path.name == "ilp.py" else None
        found += ["%s:%d in %s" % (path.name, line, func or "module")
                  for func, line in _collector_switches(tree, owner)]
    assert not found, ("gc.disable/gc.enable outside ilp._gc_paused: %s"
                       % ", ".join(found))
