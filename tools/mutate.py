"""Mutation sweep of chosen functions: does some test fail on each mutant?

Each mutant changes one site inside one target function (nested functions
included) and nothing else:

- a comparison flipped: == / !=, < / <=, > / >=, in / not in, is / is not;
- a boolean operator flipped: and / or;
- an integer constant moved by +1 or -1;
- `return True` / `return False` flipped;
- a `raise` dropped (replaced by `pass`).

The mutated module is written back with ast.unparse into a copy of the
checkout's files (those git tracks or would track), and `pytest -x -q tests`
runs there: "killed" if it fails, "timeout" after 300 s, "survived" if it
passes, "outside" if trifactor is imported from anywhere but the copy.  A
control run first unparses every target module with no mutation; the sweep
stops unless the control survives.  See DeMillo, Lipton and Sayward, "Hints
on test data selection", IEEE Computer 11(4) (1978), and Offutt et al., "An
experimental determination of sufficient mutant operators", ACM TOSEM 5(2)
(1996).

Usage, from the checkout root (stdlib only; not collected by pytest):

    python tools/mutate.py trifactor.factorisation:verify_partition \\
        trifactor.factorisation:Factorisation.image --work DIR

A target is module:qualified.name.  --list prints the mutants and runs
nothing.  os.cpu_count() test runs go at once.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds; mutants that make the suite sweep every q die only by this
FLIPS = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And}
# Exit 99 unless trifactor comes from the copy's src/, then run the tests.
RUNNER = """import sys
from pathlib import Path
import trifactor
if not Path(trifactor.__file__).resolve().is_relative_to(Path("src").resolve()):
    sys.exit(99)
import pytest
sys.exit(pytest.main(["-p", "no:cacheprovider", "-x", "-q", "tests"]))
"""


def module_path(target: str) -> Path:
    return Path("src", *target.split(":")[0].split(".")).with_suffix(".py")


def sites(target: str, tree: ast.Module):
    """(node, field, index, new value, line, description) of each mutant in
    the target function, in walk order; applying one sets
    getattr(node, field)[index], or the field itself when index is None."""
    func: ast.AST = tree
    for name in target.split(":")[1].split("."):
        func = next((n for n in ast.iter_child_nodes(func)
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name), None)
        if func is None:
            raise SystemExit(f"no function or class {target!r}")
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                new = FLIPS[type(op)]
                yield (node, "ops", j, new(), node.lineno,
                       f"{type(op).__name__} -> {new.__name__}")
        elif isinstance(node, ast.BoolOp):
            new = FLIPS[type(node.op)]
            yield (node, "op", None, new(), node.lineno,
                   f"{type(node.op).__name__} -> {new.__name__}")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for d in (1, -1):
                yield (node, "value", None, node.value + d, node.lineno,
                       f"{node.value} -> {node.value + d}")
        elif (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
              and type(node.value.value) is bool):
            yield (node, "value", None, ast.Constant(not node.value.value), node.lineno,
                   f"return {node.value.value} -> {not node.value.value}")
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            for j, stmt in enumerate(stmts if isinstance(stmts, list) else []):
                if isinstance(stmt, ast.Raise):
                    yield node, field, j, ast.Pass(), stmt.lineno, "drop raise"


def parse(target: str) -> ast.Module:
    return ast.parse((ROOT / module_path(target)).read_text(encoding="utf-8"))


def mutated_source(target: str, k: int | None) -> str:
    """The target's module unparsed, with site k mutated (none if k is None)."""
    tree = parse(target)
    if k is not None:
        node, field, index, new, _, _ = list(sites(target, tree))[k]
        if index is None:
            setattr(node, field, new)
        else:
            getattr(node, field)[index] = new
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def run_tests(work: Path, files: dict[Path, str]) -> str:
    """Copy the checkout's files that git sees into work, write files over
    them and run the tests there: killed, survived, timeout or outside."""
    listed = subprocess.run(["git", "ls-files", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, text=True, check=True)
    for name in listed.stdout.splitlines():
        if (ROOT / name).is_file():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, work / name)
    for path, text in files.items():
        (work / path).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-c", RUNNER], cwd=work, env=env,
                            start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {0: "survived", 99: "outside"}.get(code, "killed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("targets", nargs="+", help="module:qualified.name")
    parser.add_argument("--work", type=Path, help="directory for the copies")
    parser.add_argument("--list", action="store_true", help="print the mutants only")
    args = parser.parse_args()
    todo = [(t, k, site[4], site[5])
            for t in args.targets for k, site in enumerate(sites(t, parse(t)))]
    if args.list:
        for target, k, line, text in todo:
            print(f"{target} #{k} line {line}: {text}")
        return 0
    root = Path(tempfile.mkdtemp(prefix="mutate-", dir=args.work))
    control = {module_path(t): mutated_source(t, None) for t in args.targets}

    def one(item):
        n, (target, k, _, _) = item
        return item[1], run_tests(root / f"m{n}",
                                  {**control, module_path(target): mutated_source(target, k)})

    counts: dict[str, int] = {}
    try:
        verdict = run_tests(root / "control", control)
        print(f"control: {verdict}", flush=True)
        if verdict != "survived":
            return 1
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            for (target, k, line, text), verdict in pool.map(one, enumerate(todo)):
                counts[verdict] = counts.get(verdict, 0) + 1
                print(f"{verdict:8} {target} #{k} line {line}: {text}", flush=True)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
