"""Every definition under `src/` has a caller under `src/`.

The scan parses `src/mptcpkit/*.py` here, in the tests: the package itself
imports no `ast` (see `test_the_cli_imports_no_code_generation_modules`).
A definition is a module-level function or class, or a method of a
module-level class. It is reached when some node under `src/` outside its
own body mentions its name: a `Name`, an `Attribute`, an import alias, or a
string constant equal to the name (the `select=` and `getattr` lookups).
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


def mentioned(node: ast.AST) -> str | None:
    """The name `node` mentions, if it is a mention."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def unreached(trees: dict[str, ast.Module]) -> set[str]:
    """The qualified name of each definition under `trees` that no node
    outside its own body mentions, exemptions left out."""
    counts = Counter(mentioned(node) for tree in trees.values() for node in ast.walk(tree))
    return {qualname for module, tree in trees.items()
            for qualname, node in definitions(module, tree)
            if not exempt(node.name)
            and counts[node.name] == sum(mentioned(n) == node.name for n in ast.walk(node))}


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
    trees = {
        "a": ast.parse(
            "import hashlib\n"
            "def used(): pass\n"
            "def unused(): unused()\n"  # its own body does not reach it
            "def cmd_x(): used()\n"
            "class C:\n"
            "    def __init__(self): pass\n"
            "    def method(self): return C\n"
            "    def looked_up(self): pass\n"
            "    def update(self): pass\n"
        ),
        "b": ast.parse(
            "from a import C\n"
            "getattr(C(), 'looked_up')\n"
            "hashlib.blake2b().update(b'')\n"  # the blind spot: any `.update` reaches C.update
        ),
    }
    assert unreached(trees) == {"a.unused", "a.C.method"}
