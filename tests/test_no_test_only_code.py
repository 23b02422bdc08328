"""Every module-level function, class and assigned name in src/tworank,
and every non-dunder method of its classes, is used by the program itself:
referenced, outside its own definition, from src/tworank, from the
benchmark under perfbench/, or from pyproject.toml's script entry.  Code
that only tests reach belongs in tests/ (see oracles.py)."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tworank"

# Waits for its verifier subcommand (ROADMAP item 7); nothing calls it yet.
# Wiring it into `verify counting` would print two reports where the
# benchmark's plane check unpacks exactly one (`(rep,) = reports` in
# perfbench/workloads.py), so it lands together with a benchmark change.
ALLOWED_UNREFERENCED = {"acceptance_instances.counting_battery"}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _names_in(node):
    """Identifiers a statement refers to: names, attributes, imported
    names, and dotted-path strings such as perfbench's trace targets."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _DOTTED.fullmatch(sub.value):
                out.update(sub.value.split("."))
    return out


def _script_entries():
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r":(\w+)", section))


def _statements():
    """(file, top-level statement) for src/tworank and perfbench/."""
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        yield from ((path, stmt) for stmt in ast.parse(path.read_text()).body)


def _bound_names(stmt):
    """The non-dunder names a top-level statement binds: a function or
    class, or the plain-name targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_no_module_level_name_is_test_only():
    statements = list(_statements())
    referenced_by = [(path, stmt, _names_in(stmt)) for path, stmt in statements]
    entries = _script_entries()
    unreferenced = []
    for path, stmt in statements:
        if path.parent != SRC:
            continue
        for name in _bound_names(stmt):
            if name in entries:
                continue
            if any(other is not stmt and name in names for _, other, names in referenced_by):
                continue
            unreferenced.append(f"{path.stem}.{name}")
    assert sorted(set(unreferenced) - ALLOWED_UNREFERENCED) == []
    # the allow-list holds only names that really are unreferenced
    assert ALLOWED_UNREFERENCED <= set(unreferenced)


def test_no_method_is_test_only():
    """A method counts as used when its name occurs anywhere outside its
    own body: each class is split into the statements of its body."""
    units = []  # (file, class name or None, statement)
    for path, stmt in _statements():
        if isinstance(stmt, ast.ClassDef):
            units.extend((path, stmt.name, sub) for sub in stmt.body)
        else:
            units.append((path, None, stmt))
    names = [(node, _names_in(node)) for _, _, node in units]
    unreferenced = []
    for path, cls, node in units:
        if path.parent != SRC or cls is None or not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(other is not node and name in used for other, used in names):
            unreferenced.append(f"{path.stem}.{cls}.{name}")
    assert unreferenced == []
