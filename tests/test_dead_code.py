"""No dead code: every module-level import is used, every private
module-level function or class is referenced somewhere, every export
in the package's table is defined where the table says and is in
``__all__``, no JSON policy grows a second way to emit, no policy
lives outside the JSON menus, and every exception class the package
defines is raised somewhere in it.  And no live code goes missing: every
name the benchmark in ``perfbench/`` reads from the package still
exists, since its tracer skips a target it cannot find instead of
failing.  The contract oracle stays clean-room: it imports neither
the package nor numpy.

Static, stdlib ``ast`` only, except the menu check, which imports the
policy type unions, and the export check, which reads ``hrru.__all__``.
"""

import ast
import builtins
from pathlib import Path
from typing import get_args

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hrru"
PERFBENCH = ROOT / "perfbench"
ORACLE = ROOT / "tests" / "contract_oracle.py"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def unused_imports() -> list[str]:
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        used = _referenced(tree)
        found += [f"{path.stem}.{n}" for n in _imported(tree) if n not in used]
    return found


def unreferenced_private_defs() -> list[str]:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    used = set().union(*(_referenced(_tree(p)) for p in files))
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and node.name not in used
            ):
                found.append(f"{path.stem}.{node.name}")
    return found


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def export_problems() -> list[str]:
    # __init__ maps each export to its submodule in one table, _EXPORTS
    # (submodule: names), and imports a submodule only when one of its
    # names is first read.
    import hrru

    init = _tree(PACKAGE / "__init__.py")
    (table,) = [
        ast.literal_eval(node.value) for node in init.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
    ]
    found, names = [], ["__version__"]
    for module, exported in table.items():
        tree = _tree(PACKAGE / f"{module}.py")
        defined = _top_level_names(tree) - set(_imported(tree))
        found += [f"{module} defines no {n}" for n in exported if n not in defined]
        names += exported
    found += [f"{n} is listed twice" for n in sorted(set(names)) if names.count(n) > 1]
    if sorted(hrru.__all__) != sorted(names):
        found.append(f"__all__ is {sorted(hrru.__all__)}, not the table's names and __version__")
    # A module-level import of a submodule would make the package eager.
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            found.append(f"__init__ line {node.lineno}: module-level relative import")
    return found


def policy_problems() -> list[str]:
    # Every class in urn_core's DRAW_POLICIES and REINFORCEMENT_POLICIES
    # declares its stream counter (stream_lag) and its one rule
    # (emit_vec), and none defines a scalar emit that reads a stream.
    tree = _tree(PACKAGE / "urn_core.py")
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    tables = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("DRAW_POLICIES", "REINFORCEMENT_POLICIES")
            for t in node.targets)
    ]
    found = [] if len(tables) == 2 else ["urn_core lacks a policy table"]
    for table in tables:
        for value in table.values:
            body = _top_level_names(classes[value.id])
            found += [f"{value.id} does not declare {name}"
                      for name in ("stream_lag", "emit_vec") if name not in body]
            if "emit" in body:
                found.append(f"{value.id} defines emit")
    return found


def _name(node: ast.expr) -> str | None:
    # The name a ``Name`` or an ``Attribute`` ends in.
    return getattr(node, "id", getattr(node, "attr", None))


def unraised_exceptions() -> list[str]:
    # Every class deriving, directly or through another such class, from
    # a builtin exception, against the names every ``raise`` in the
    # package raises (``raise X`` or ``raise X(...)``).
    trees = [(path.stem, _tree(path)) for path in sorted(PACKAGE.glob("*.py"))]
    classes = {(stem, node.name): {_name(b) for b in node.bases}
               for stem, tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    errors = {name for name, value in vars(builtins).items()
              if isinstance(value, type) and issubclass(value, BaseException)}
    for _ in classes:  # one pass per class reaches every depth
        errors |= {name for (_, name), bases in classes.items() if bases & errors}
    raised = {_name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
              for _, tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and node.exc is not None}
    return [f"{stem}.{name}" for stem, name in classes
            if name in errors and name not in raised]


def _package_names(module: str) -> set[str] | None:
    # The top-level names of hrru.<module> ("" is the package), or None
    # when there is no such module.
    path = PACKAGE / f"{module or '__init__'}.py"
    return _top_level_names(_tree(path)) if path.is_file() else None


def _has(module: str, name: str) -> bool:
    names = _package_names(module)
    if names is None:
        return False
    return name in names or (module == "" and _package_names(name) is not None)


def perfbench_problems() -> list[str]:
    # Every (span, module, function, counter) of tracer.TARGETS, every
    # ``from hrru... import`` in perfbench/*.py, and every attribute
    # read through a module so imported (``mc.replicate``).
    found = []
    (targets,) = [
        node.value for node in _tree(PERFBENCH / "tracer.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    for entry in targets.elts:
        module, name = (ast.literal_eval(e) for e in entry.elts[1:3])
        if not _has(module, name):
            found.append(f"tracer target hrru.{module}.{name} does not exist")
    for path in sorted(PERFBENCH.glob("*.py")):
        aliases = {}
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "hrru" or node.module.startswith("hrru.")):
                module = node.module[len("hrru."):] if "." in node.module else ""
                for alias in node.names:
                    if not _has(module, alias.name):
                        found.append(f"{path.name}: from {node.module} import {alias.name}")
                    elif module == "" and _package_names(alias.name) is not None:
                        aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases
                    and not _has(aliases[node.value.id], node.attr)):
                found.append(f"{path.name}: {node.value.id}.{node.attr}")
    return found


def oracle_imports() -> list[str]:
    # Every import of hrru or numpy in the oracle, at any depth: one
    # would let it share code with what it checks.
    found = []
    for node in ast.walk(_tree(ORACLE)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules
                  if m.split(".")[0] in ("hrru", "numpy")]
    return found


def test_no_unused_module_imports():
    assert unused_imports() == []


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_defs() == []


def test_exports_resolve_and_match_imports():
    assert export_problems() == []


def test_policies_emit_through_emit_vec_only():
    assert policy_problems() == []


def test_every_policy_is_on_a_json_menu():
    # The policy type unions hold exactly the classes a JSON config can
    # name, so no policy lives outside the menus.
    from hrru.urn_core import (
        DRAW_POLICIES, REINFORCEMENT_POLICIES, DrawSizePolicy, ReinforcementPolicy,
    )

    assert set(get_args(DrawSizePolicy)) == set(DRAW_POLICIES.values())
    assert set(get_args(ReinforcementPolicy)) == set(REINFORCEMENT_POLICIES.values())


def test_every_exception_class_is_raised():
    assert unraised_exceptions() == []


def test_perfbench_reads_only_names_that_exist():
    assert perfbench_problems() == []


def test_contract_oracle_imports_neither_the_package_nor_numpy():
    assert oracle_imports() == []
