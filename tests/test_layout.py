"""Source-layout checks on ``src/tempalign``, made with the stdlib ``ast`` module.

* No module imports a name it does not use, unless the import's line says
  why, as ``# noqa: F401`` followed by a reason.
* Every top-level function or class and every method is referenced
  somewhere other than its own definition: as a name or attribute in
  ``src/``, in the benchmark's modules other than its tests, or as a string
  in the benchmark's hook table (``layertrace.HOOKS``).  Dunder methods are
  reached by the language and are not checked.
* The definitions that only a hook-table string reaches are exactly
  ``HOOK_ONLY``: the benchmark keeps them alive, and they go with their
  hooks (ROADMAP item 1a).
* Every import kept only for a hook (``# noqa: F401  (hooked by
  perfbench/layertrace.py)``) names a (module, attribute) pair of the hook
  table, so it cannot outlive its hook.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "tempalign").glob("*.py"))
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_perfbench.py")

# Definitions that only tests reach today, each with the reason it stays.
UNREFERENCED_OK = {
    "ProjectionModel.linear": "ROADMAP item 4 makes heads reachable",
    "ProjectionModel.mlp": "ROADMAP item 4 makes heads reachable",
}

# Definitions that only layertrace.HOOKS strings reach: no program code calls them.
HOOK_ONLY = {"dtw", "otam", "cosine_backward", "video_only_negatives", "unit_term_video_only", "similarity_matrix"}

# a noqa comment for F401 with some reason after it
NOQA_F401 = re.compile(r"#\s*noqa:\s*F401\b\W*\w")
# the reason an import is kept only for a benchmark hook
HOOKED = re.compile(r"#\s*noqa:\s*F401\s*\(hooked by perfbench/layertrace\.py\)")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def hook_table() -> list[tuple[str, str]]:
    """Every (module, attribute) pair of the benchmark's ``layertrace.HOOKS``."""
    for node in parse(ROOT / "perfbench" / "layertrace.py").body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in targets):
                return [tuple(hook) for hooks in ast.literal_eval(node.value).values() for hook in hooks]
    raise AssertionError("layertrace.py defines no HOOKS")


def hooked_imports() -> list[tuple[str, str]]:
    """(module, name) of each import whose line says a hook keeps it."""
    out = []
    for path in SRC:
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [(f"tempalign.{path.stem}", alias.asname or alias.name)
                        for alias in node.names if HOOKED.search(lines[alias.lineno - 1])]
    return out


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` of each imported name the module never reads."""
    tree = parse(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not NOQA_F401.search(lines[alias.lineno - 1]):
                out.append(f"{path.name}:{alias.lineno} {name}")
    return out


def definitions(path: Path):
    """(qualified name, bare name, node) of each top-level function or class
    and each non-dunder method of the module."""
    for node in parse(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def references() -> dict[str, list[tuple[Path | None, int]]]:
    """Bare name -> (file, line) of each name or attribute that reads it;
    a hook-table string has no location."""
    refs: dict[str, list[tuple[Path | None, int]]] = {}
    for path in SRC + BENCH:
        for node in ast.walk(parse(path)):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                refs.setdefault(name, []).append((path, node.lineno))
    for _, attr in hook_table():
        for part in attr.split("."):
            refs.setdefault(part, []).append((None, 0))
    return refs


def outside_references() -> dict[str, list[tuple[Path | None, int]]]:
    """Qualified name of each definition -> its references outside its own body."""
    refs = references()
    return {
        qualified: [
            (where, line)
            for where, line in refs.get(name, [])
            if where != path or not node.lineno <= line <= node.end_lineno
        ]
        for path in SRC
        for qualified, name, node in definitions(path)
    }


def unreferenced() -> list[str]:
    return [qualified for qualified, outside in outside_references().items() if not outside]


def hook_only() -> list[str]:
    """Definitions whose every outside reference is a hook-table string."""
    return [
        qualified
        for qualified, outside in outside_references().items()
        if outside and all(where is None for where, _ in outside)
    ]


def test_no_unused_imports():
    assert [hit for path in SRC for hit in unused_imports(path)] == []


def test_every_definition_is_referenced():
    assert sorted(set(unreferenced()) - set(UNREFERENCED_OK)) == []


def test_allow_list_is_not_stale():
    assert sorted(UNREFERENCED_OK) == sorted(set(unreferenced()) & set(UNREFERENCED_OK))


def test_hook_only_definitions_are_listed():
    assert sorted(hook_only()) == sorted(HOOK_ONLY)


def test_hooked_imports_name_a_hook():
    assert sorted(set(hooked_imports()) - set(hook_table())) == []
