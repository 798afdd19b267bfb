"""Every top-level function and class in `src/stormwatch/` has a user.

A user is a reference by name, outside the definition itself, anywhere in
the code that ships: `src/`, `scripts/` and `perfbench/` (their tests do
not count). Attribute access, imports and strings (as in a `getattr` or a
tracer patching a module attribute) all count. Matching is by bare name,
so the check can miss dead code that shares a name with live code.
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


def _definitions() -> dict[str, ast.AST]:
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS):
                found[f"{path.stem}.{node.name}"] = node
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
                    if isinstance(node, DEFINITIONS):
                        own.update((id(sub), node.name) for sub in ast.walk(node))
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
        for qualified, node in _definitions().items()
        if node.name not in used and qualified not in EXEMPT
    ]
    assert unused == [], f"defined in src/ but used only by tests, or not at all: {unused}"


def test_exemptions_are_current():
    definitions = _definitions()
    used = _referenced_names()
    stale = [name for name in sorted(EXEMPT) if name not in definitions
             or definitions[name].name in used]
    assert stale == [], f"exempt but deleted or now used, drop the exemption: {stale}"
