"""Every top-level function, class and constant in `src/stormwatch/` has a user.

A constant is a module-level assignment to a plain name; dunder names such
as `__all__` are skipped. A user is a reference by name, outside the
definition itself, anywhere in
the code that ships: `src/`, `scripts/` and `perfbench/` (their tests do
not count). Attribute access, imports and strings (as in a `getattr` or a
tracer patching a module attribute) all count. Matching is by bare name,
so the check can miss dead code that shares a name with live code.

It also checks that every name a top-level import binds in a module of
`src/stormwatch/` is read in that module, and that `index.py`, the store
every read command loads, imports no other stormwatch module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stormwatch"
SHIPPED = ("src", "scripts", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

EXEMPT = {
    # The event parser that acceptance criteria 01 and 02 call; the stock
    # pipeline matches the same `codecs.GRAMMARS` without it.
    "codecs.parse_line",
}


def _defined_names(node: ast.AST) -> list[str]:
    """The names a top-level statement defines, dunders aside."""
    if isinstance(node, DEFINITIONS):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [
        target.id for target in targets
        if isinstance(target, ast.Name)
        and not (target.id.startswith("__") and target.id.endswith("__"))
    ]


def _definitions() -> dict[str, str]:
    """Qualified name -> bare name of every top-level definition."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in _defined_names(node):
                found[f"{path.stem}.{name}"] = name
    return found


def _referenced_names() -> set[str]:
    names = set()
    for top in SHIPPED:
        for path in (ROOT / top).rglob("*.py"):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            own = set()
            if path.parent == PACKAGE:
                for node in tree.body:
                    for defined in _defined_names(node):
                        own.update((id(sub), defined) for sub in ast.walk(node))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name.rpartition(".")[2]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                if (id(node), name) not in own:
                    names.add(name)
    return names


def test_no_definition_is_used_only_by_tests():
    used = _referenced_names()
    unused = [
        qualified
        for qualified, name in _definitions().items()
        if name not in used and qualified not in EXEMPT
    ]
    assert unused == [], f"defined in src/ but used only by tests, or not at all: {unused}"


def test_exemptions_are_current():
    definitions = _definitions()
    used = _referenced_names()
    stale = [name for name in sorted(EXEMPT) if name not in definitions
             or definitions[name] in used]
    assert stale == [], f"exempt but deleted or now used, drop the exemption: {stale}"


def test_no_top_level_import_is_unused():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{path.stem}: {name}" for name in bound if name not in read]
    assert unused == [], f"imported but never read: {unused}"


def test_index_imports_no_sibling_module():
    """`query`, `agg` and `report` load the store and no parser, so `index`
    imports no other stormwatch module."""
    tree = ast.parse((PACKAGE / "index.py").read_text(encoding="utf-8"))
    imports = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "stormwatch")
        or isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "stormwatch" for alias in node.names)
    ]
    assert imports == [], f"index.py imports other stormwatch modules: {imports}"
