"""No dead code: every module-level import is used, every private
module-level function or class is referenced somewhere, the package's
exports match its imports, and no JSON policy grows a second way to
emit.

Static, stdlib ``ast`` only.  The package ``__init__`` is exempt from
the import check: its imports are the public re-exports, which the
export check holds to ``__all__`` instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hrru"


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
        if path.name != "__init__.py":
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
    init = _tree(PACKAGE / "__init__.py")
    (exported,) = [
        ast.literal_eval(node.value) for node in init.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    defined = _top_level_names(init)
    found = [f"__all__ names {n}, which __init__ does not define" for n in exported
             if n not in defined]
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            source = _top_level_names(_tree(PACKAGE / f"{node.module}.py"))
            for alias in node.names:
                if alias.name not in source:
                    found.append(f"{node.module} defines no {alias.name}")
                if (alias.asname or alias.name) not in exported:
                    found.append(f"__init__ imports {alias.name} but __all__ omits it")
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


def test_no_unused_module_imports():
    assert unused_imports() == []


def test_no_unreferenced_private_definitions():
    assert unreferenced_private_defs() == []


def test_exports_resolve_and_match_imports():
    assert export_problems() == []


def test_policies_emit_through_emit_vec_only():
    assert policy_problems() == []
