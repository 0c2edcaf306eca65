"""The source rules that CI checks before Tier-1.  Run from anywhere in the checkout:

    python3 scripts/check_source.py

It prints one ``path:line: ...`` line per violation and exits 1 if there is
any, 0 otherwise.  The rules:

- No line over 100 characters in ``src``, ``tests`` and ``scripts``.
  ``bench/`` is left out: it is changed only together with its benchmark.
- No unreferenced definition in ``src`` or ``tests``.  A def, a class, a
  module-level name or an annotated class field (a dataclass field) named
  nowhere but where it is defined is dead code.  Pytest finds ``test_*``
  functions and ``pytest_*`` hooks by their names alone.  This script's own
  words do not count as references.
- No unused import in ``src``, ``tests`` and ``scripts``.  A package
  ``__init__`` re-exports what it imports, and so does a line marked
  ``noqa: F401``.
- The import rules, checked by one walk over every import of the package:
  - only the CLI imports the oracle: the brute-force oracle is the tests'
    referee and shares no code path with what it checks but the exhaustive
    walk ``bhcode.first_collision``, which is no construction; the CLI's verify
    and search commands are its own front door;
  - only linearcode imports numpy at module level: "import masscodec loads
    no numpy", and a top-level numpy import moves the benchmark's
    peak_rss_mb by about 1.4 MB; an import inside a function or under
    "if TYPE_CHECKING:" does not run when the module loads;
  - no import cycle hidden inside a function: a module that imports, inside
    a function, a module that imports it when it loads splits one concern
    across the two; a deferred import of a module that does not import it
    back (gf2m's numpy-deferring rref) passes;
  - no module imports another module's private name ("from .x import _y"):
    what two modules share is public in the module that defines it.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SELF = pathlib.Path("scripts", pathlib.Path(__file__).name)
PACKAGE = pathlib.Path("src/masscodec")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def sources(*roots):
    for root in roots:
        yield from sorted(pathlib.Path(root).rglob("*.py"))


def lines(root):
    for path in sources(root):
        text = path.read_text(encoding="utf-8")
        yield from ((path, n, line) for n, line in enumerate(text.splitlines(), 1))


def long_lines():
    return [
        f"{path}:{number}: {len(line)} characters"
        for root in ("src", "tests", "scripts")
        for path, number, line in lines(root)
        if len(line) > 100
    ]


def unreferenced_definitions():
    words = Counter(
        word
        for root in ("src", "tests", "bench", "scripts")
        for path, _, line in lines(root)
        if path != SELF
        for word in re.findall(r"\w+", line)
    )
    defs = [
        (path, number, match[1])
        for root in ("src", "tests")
        for path, number, line in lines(root)
        if (
            match := re.match(r"\s*(?:async\s+)?(?:def|class)\s+(\w+)", line)
            or re.match(r"([A-Za-z_]\w*)\s*(?::[^=]*)?=(?!=)", line)
        )
        and not re.fullmatch(r"__\w+__|test_\w*|pytest_\w+", match[1])
    ]
    defs += [
        (path, field.lineno, field.target.id)
        for path in sources("src", "tests")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for field in node.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
    ]
    defined = Counter(name for _, _, name in defs)
    return [
        f"{path}:{number}: {name} is named nowhere but where it is defined"
        for path, number, name in defs
        if words[name] == defined[name]
    ]


def unused_imports_in(path):
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    marked = {n for n, line in enumerate(text.splitlines(), 1) if "noqa: F401" in line}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or node.lineno in marked:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                yield f"{path}:{node.lineno}: {name} is imported but never used"


def unused_imports():
    return [
        message
        for path in sources("src", "tests", "scripts")
        if path.name != "__init__.py"
        for message in unused_imports_in(path)
    ]


def imports(nodes, at_load=True):
    """Each import among nodes and whether it runs when its module loads: True,
    False inside a function, None under "if TYPE_CHECKING:" (it never runs)."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, at_load
        elif isinstance(node, ast.If) and ast.unparse(node.test).endswith("TYPE_CHECKING"):
            yield from imports(node.body, None)
            yield from imports(node.orelse, at_load)
        else:
            inner = at_load and not isinstance(node, FUNCTIONS)
            yield from imports(ast.iter_child_nodes(node), inner)


def names(node):
    """The dotted names an import names; a relative one is read in masscodec."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = ".".join(filter(None, ("masscodec", node.module)))
    base = node.module if node.level == 0 else base
    return [base, *(f"{base}.{alias.name}" for alias in node.names)]


def import_rules():
    modules_here = {path.stem for path in PACKAGE.glob("*.py")}
    walked = []  # (path, line, names, package modules named, runs at load)
    for path in sorted(PACKAGE.glob("*.py")):
        for node, at_load in imports(ast.parse(path.read_text(encoding="utf-8")).body):
            named = names(node)
            modules = {n.split(".")[1] for n in named if n.startswith("masscodec.")}
            walked.append((path, node.lineno, named, modules & modules_here, at_load))

    found = [
        f"{path}:{line}: imports the oracle"
        for path, line, named, _, _ in walked
        if path.name != "cli.py" and any(n.split(".")[-1] == "oracle" for n in named)
    ]
    found += [
        f"{path}:{line}: imports numpy at module level"
        for path, line, named, _, at_load in walked
        if path.name != "linearcode.py" and at_load
        and any(n.split(".")[0] == "numpy" for n in named)
    ]
    loaded = {
        (path.stem, module)
        for path, _, _, modules, at_load in walked if at_load for module in modules
    }
    found += [
        f"{path}:{line}: imports {module} inside a function,"
        f" and {module} imports {path.stem} at load"
        for path, line, _, modules, at_load in walked if at_load is False
        for module in modules if (module, path.stem) in loaded
    ]
    found += [
        f"{path}:{line}: imports the private name {name}"
        for path, line, named, _, _ in walked
        for name in named
        if name.startswith("masscodec.") and name.rsplit(".", 1)[1].startswith("_")
    ]
    return found


def main() -> None:
    os.chdir(ROOT)  # every rule reads paths relative to the checkout
    rules = (long_lines, unreferenced_definitions, unused_imports, import_rules)
    found = [message for rule in rules for message in rule()]
    sys.exit("\n".join(found) or None)  # a message exits 1


if __name__ == "__main__":
    main()
