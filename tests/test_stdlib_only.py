"""The package imports nothing outside the standard library, and no process pool,
dataclasses or typing.
It has no assert statement, which python -O would strip, and no module-level
function or class, method or property that only tests read.

Its only exception classes are the three in field.py: UsageError and its
OutOfRangeError subclass (exit 3) and InvariantError (exit 4).
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import trifactor


def test_package_imports_only_the_standard_library():
    src = Path(trifactor.__file__).resolve().parent
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_cli_import_loads_no_process_pool():
    # the HB1F sweeps run serially; importing the front end must not pull
    # in multiprocessing or concurrent.futures
    src = Path(trifactor.__file__).resolve().parents[1]
    code = ("import sys, trifactor.cli; print(' '.join(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_cli_import_loads_no_dataclasses_or_typing():
    # the records are namedtuples and plain classes, so a cold import of the
    # front end skips dataclasses and the inspect, ast and dis it pulls in;
    # -S keeps site's start-up imports out of the count
    src = Path(trifactor.__file__).resolve().parents[1]
    code = ("import sys, trifactor.cli; print(' '.join(m for m in sys.modules "
            "if m in ('dataclasses', 'inspect', 'typing', 'ast', 'dis')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_exception_classes_live_only_in_field():
    # every raise site picks one of these, so the CLI decides exit 3 or 4
    # from one module
    src = Path(trifactor.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                     for b in node.bases]
            if any(b.endswith(("Error", "Exception")) for b in bases):
                found.append((path.name, node.name))
    assert sorted(found) == [("field.py", "InvariantError"),
                             ("field.py", "OutOfRangeError"),
                             ("field.py", "UsageError")]


def test_package_has_no_assert_statements():
    # python -O strips assert, so every run-time check raises InvariantError
    src = Path(trifactor.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_module_level_definition_has_a_reader_in_src():
    # code that only tests reach is deleted, not kept: each module-level
    # function and class is named by src/ code outside its own body, and
    # the re-exports in __init__.py do not count as readers.  Each method
    # and property is read as an attribute (.name) outside its own body,
    # but dunders, which Python calls, and _Parser.error, which argparse
    # calls
    src = Path(trifactor.__file__).resolve().parent
    defined = []
    read = set()
    attributes = Counter()
    methods = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes += _attributes(tree)
        for stmt in tree.body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, stmt.name))
                names.discard(stmt.name)
            read |= names
            if isinstance(stmt, ast.ClassDef):
                methods += [(path.name, f"{stmt.name}.{item.name}", item)
                            for item in stmt.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")]
    unread = [f"{module}: {name}" for module, name in defined if name not in read]
    unread += [f"{module}: {name}" for module, name, body in methods
               if name != "_Parser.error"
               and attributes[body.name] == _attributes(body)[body.name]]
    assert unread == [], f"no reader in src/: {', '.join(unread)}"


def _attributes(tree) -> Counter:
    """How often each attribute name is read under tree."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
