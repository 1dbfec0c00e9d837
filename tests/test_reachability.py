"""Every definition under `src/` has a caller under `src/`.

The scan parses `src/mptcpkit/*.py` here, in the tests: the package itself
imports no `ast` (see `test_the_cli_imports_no_code_generation_modules`).
A definition is a module-level function or class, or a method of a
module-level class. It is reached when some node under `src/` outside its
own body mentions its name: a `Name`, an import alias, a string constant
equal to the name (the `select=` and `getattr` lookups), or an `Attribute`.
An `Attribute` mentions a module-level name only when its value names a
package module (`netsim.parse_node`, `store_mod.top_report`), so
`line.strip()` does not reach a function `strip`; it mentions a method
whatever its value. The string value of an `Enum` member (`"mirror"`) is not
a mention.
Exempt are `main`, dunder methods and the two f-string dispatches of `cli`:
`cmd_*` (`main`) and `_write_*` (`cmd_report`).

`ALLOWED` names the definitions kept without a caller, each with its
reason. An entry the scan no longer flags fails the test too, so the list
only shrinks.

Blind spot: the scan matches names, not bindings, so a dead method whose
name is common stays hidden. The `.update` calls on `hashlib` objects in
`bench`, `netsim` and `probe` (and on a dict in `store`) mention `update`,
which hides `flows.FlowStats.update`: nothing under `src/` calls it, and
`perfbench/tracing.LAYERS` names it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mptcpkit"

_LAYERS = "named in `perfbench/tracing.LAYERS`: delete with ROADMAP item 1"
ALLOWED = {
    "bench.delta_report": _LAYERS,
    "bench.merge_reports": _LAYERS,
    "flows.FlowKey.canonical": _LAYERS,
    "netsim.format_topology": _LAYERS,
    "packet.decode_packet": _LAYERS,
    "pcapio.read_pcap": _LAYERS,
    "store.version_overlap": "acceptance-test API, which ROADMAP item 2 keeps",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def exempt(name: str) -> bool:
    return (name == "main" or name.startswith(("cmd_", "_write_"))
            or (name.startswith("__") and name.endswith("__")))


def definitions(module: str, tree: ast.Module):
    """(qualified name, node) of each module-level function and class and of
    each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFINITIONS):
                    yield f"{module}.{node.name}.{member.name}", member


def mentioned(node: ast.AST, modules: set[str]) -> str | None:
    """The name `node` mentions, if it is a mention: `.name` for an attribute
    that only a method's name can match."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        value = node.value
        module = isinstance(value, ast.Name) and value.id in modules
        return node.attr if module else "." + node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def enum_values(tree: ast.Module) -> set[int]:
    """The `id` of each constant that is the value of an `Enum` member."""
    return {id(stmt.value) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any(getattr(base, "id", getattr(base, "attr", None)) == "Enum"
                    for base in cls.bases)
            for stmt in cls.body
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)}


def unreached(trees: dict[str, ast.Module]) -> set[str]:
    """The qualified name of each definition under `trees` that no node
    outside its own body mentions, exemptions left out."""
    modules = set(trees) | {node.asname or node.name for tree in trees.values()
                            for node in ast.walk(tree) if isinstance(node, ast.alias)
                            and node.name.rpartition(".")[2] in trees}
    skipped = set().union(*map(enum_values, trees.values()))

    def mentions(root: ast.AST) -> Counter:
        return Counter(mentioned(node, modules) for node in ast.walk(root)
                       if id(node) not in skipped)

    counts = sum(map(mentions, trees.values()), Counter())
    dead = set()
    for module, tree in trees.items():
        for qualname, node in definitions(module, tree):
            own = mentions(node)
            names = [node.name, "." + node.name] if qualname.count(".") == 2 else [node.name]
            if not exempt(node.name) and all(counts[n] == own[n] for n in names):
                dead.add(qualname)
    return dead


def parse_src(root: Path = SRC) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(root.glob("*.py"))}


def test_every_definition_has_a_caller_or_an_allowed_reason():
    dead = unreached(parse_src())
    assert not dead - ALLOWED.keys(), f"no caller under src/: {sorted(dead - ALLOWED.keys())}"
    stale = ALLOWED.keys() - dead
    assert not stale, f"allow-listed but reached, drop from ALLOWED: {sorted(stale)}"


def test_every_allowed_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_src_imports_no_ast():
    for module, tree in parse_src().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name.partition(".")[0] != "ast" for a in node.names), module
            elif isinstance(node, ast.ImportFrom):
                assert node.level or node.module.partition(".")[0] != "ast", module


def test_the_scan_flags_an_uncalled_definition_and_not_a_called_one():
    a = ast.parse(
        "import hashlib\n"
        "from enum import Enum\n"
        "def used(): pass\n"
        "def unused(): unused()\n"  # its own body does not reach it
        "def cmd_x(): used()\n"
        "def f(): pass\n"
        "def strip(): pass\n"
        "class Kind(Enum):\n"
        "    F = 'f'\n"  # an enum value does not reach `f`
        "class C:\n"
        "    def __init__(self): pass\n"
        "    def method(self): return C\n"
        "    def looked_up(self): pass\n"
        "    def update(self): pass\n"
    )
    b = (
        "from a import C, Kind\n"
        "getattr(C(), 'looked_up')\n"
        "hashlib.blake2b().update(b'')\n"  # the blind spot: any `.update` reaches C.update
        "Kind.F\n"
        "'x'.strip()\n"  # a method of `str`, not the module's `strip`
    )
    assert unreached({"a": a, "b": ast.parse(b)}) == {"a.unused", "a.C.method", "a.f", "a.strip"}
    called = b + "import a as mod\nmod.strip()\n"
    assert unreached({"a": a, "b": ast.parse(called)}) == {"a.unused", "a.C.method", "a.f"}
