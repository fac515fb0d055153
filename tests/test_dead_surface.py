"""No top-level function or class of the package is dead surface.

A definition in ``src/nexpansive/*.py`` (``__init__.py`` aside) counts as
reached when a name it defines is used by something reached. The roots are
the click commands in ``cli.py``, the module-level statements of every
module other than imports, and every name that the benchmark harnesses
under ``perfbench/`` and ``bench/`` mention, including the dotted names
in their string constants (``perfbench/tracing.py`` binds functions that
way). Tests and ``__init__.py`` re-exports do not keep a name alive.

Nor does a module import a name it never reads: an import left behind
after its last reader is gone fails here too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nexpansive"
HARNESSES = ("perfbench", "bench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def used_names(node, strings=False):
    """The identifiers a subtree reads: names, attributes and imported
    names, plus, with ``strings``, the parts of dotted-identifier string
    constants."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str)):
            parts = n.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def is_command(node):
    """Is a definition decorated as a click command or group?"""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in (
                "command", "group"):
            return True
    return False


def unreached_definitions(package=PACKAGE, root=ROOT):
    """Sorted "module.name" of every top-level definition nothing reaches."""
    defs = {}  # name -> [(module, node)]
    aliases = {}  # alias -> name, from "import name as alias" in the package
    roots = set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defs.setdefault(node.name, []).append((path.stem, node))
                if path.name == "cli.py" and is_command(node):
                    roots.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                aliases.update((a.asname, a.name) for a in node.names
                               if a.asname)
            else:
                roots |= used_names(node)
    for folder in HARNESSES:
        for path in sorted((root / folder).glob("*.py")):
            roots |= used_names(ast.parse(path.read_text()), strings=True)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        name = aliases.get(name, name)
        if name in reached or name not in defs:
            continue
        reached.add(name)
        for _, node in defs[name]:
            todo.extend(used_names(node))
    return sorted(f"{module}.{name}" for name, entries in defs.items()
                  if name not in reached for module, _ in entries)


def unread_imports(package=PACKAGE):
    """Sorted "module.name" of every name a module of the package (other
    than ``__init__.py``) binds by an import and never reads."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        bound, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"):
                bound.update(a.asname or a.name.split(".")[0]
                             for a in node.names)
        out.extend(f"{path.stem}.{name}" for name in bound - read)
    return sorted(out)


def test_every_definition_is_reached():
    unreached = unreached_definitions()
    assert not unreached, "nothing reaches " + ", ".join(unreached)


def test_walk_names_only_the_unreached(tmp_path):
    package = tmp_path / "src" / "nexpansive"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from nexpansive.lib import orphan\n")
    (package / "cli.py").write_text(
        "import click\nfrom nexpansive.lib import used\n\n\n"
        "@click.group()\ndef main():\n    used()\n")
    (package / "lib.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def bound():\n    return 2\n\n\n"
        "def orphan():\n    return used()\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "tracing.py").write_text(
        'FUNCTIONS = (("lib", "nexpansive.lib.bound"),)\n')
    assert unreached_definitions(package, tmp_path) == ["lib.orphan"]


def test_every_import_is_read():
    unread = unread_imports()
    assert not unread, "imported and never read: " + ", ".join(unread)


def test_unread_imports_names_only_the_unread(tmp_path):
    package = tmp_path / "nexpansive"
    package.mkdir()
    (package / "__init__.py").write_text("from nexpansive.lib import kept\n")
    (package / "lib.py").write_text(
        "from __future__ import annotations\n\n"
        "import functools\nimport os.path\nimport random as rnd\n"
        "from fractions import Fraction\nfrom math import gcd, lcm\n\n\n"
        "@functools.cache\ndef kept(x: Fraction):\n    return gcd(x, 2)\n")
    assert unread_imports(package) == ["lib.lcm", "lib.os", "lib.rnd"]
