"""Every definition in ``src/xferop`` that the package never reads is kept on purpose.

A definition is a ``def`` or ``class`` at any depth.  It is reached when some
``Name`` or ``Attribute`` node in ``src/xferop`` reads its name (by name, so
one read reaches every definition of that name).  Click commands and dunders
are not counted: the command line and Python call them.  A string in
``__all__`` is not a read, and neither is a call from ``tests/``: "a test
calls it" is no reason to keep a function (ROADMAP item 9).

``KEPT`` names each unreached definition that stays, with its group:

- ``replay``: replays a saved certificate, for a certificate check command;
- ``oracle``: a direct or exact reference that tests hold faster code against;
- ``claim``: checks a claim of the paper that no command reports yet.

The test fails when an unreached definition is not in ``KEPT``, and when a
``KEPT`` entry no longer exists or is now reached.  Delete the definition,
give it a caller, or add it here with its group.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "xferop"

KEPT = {
    "verdicts.verify_periodic_window": "replay",
    "verdicts.periodic_witness_norms": "replay",
    "verdicts.check_contracting_set": "replay",  # the verdict checks on its own regions
    "thermo.TwistedMonomial.left_value": "oracle",  # against _StateTable
    "thermo.TwistedMonomial.right_value": "oracle",
    "transfer.ulam_matrix": "oracle",  # against the solver's bin matrices
    "thermo.check_positive_energy": "claim",
    "thermo.core_kms_check": "claim",
}

GROUPS = {"replay", "oracle", "claim"}


def _is_command(node) -> bool:
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _definitions(tree, prefix: str):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and not _is_command(node):
                yield qual, node.name
            yield from _definitions(node, qual)
        else:
            yield from _definitions(node, prefix)


def _reads(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unreached(sources: dict[str, str]) -> tuple[set[str], set[str]]:
    """(unreached qualified names, all qualified names) of module name -> source."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = set().union(*(_reads(t) for t in trees.values()))
    defs = [d for mod, t in trees.items() for d in _definitions(t, mod)]
    return {q for q, name in defs if name not in reads}, {q for q, _ in defs}


def package_sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_every_unreached_definition_is_kept_with_a_group():
    dead, defined = unreached(package_sources())
    assert not sorted(dead - KEPT.keys()), "unreached and not in KEPT"
    assert not sorted(KEPT.keys() - defined), "in KEPT but no longer defined"
    assert not sorted(KEPT.keys() - dead), "in KEPT but now reached: drop the entry"
    assert set(KEPT.values()) <= GROUPS


def test_every_exported_name_is_defined():
    # strings in __all__ are not reads, so a deleted name left there passes the
    # scan above, yet ``from module import *`` raises AttributeError on it
    stale = []
    for mod in package_sources():
        module = importlib.import_module("xferop" if mod == "__init__" else f"xferop.{mod}")
        stale += [f"{mod}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not stale


def test_the_scan_ignores_all_strings_and_commands():
    sample = """
__all__ = ["exported"]
helper_name = "helper"

@main.command()
def run():
    helper()

@click.group()
def main():
    pass

def helper():
    pass

def exported():
    pass

class Box:
    def __repr__(self):
        return "Box"

    def used(self):
        pass

    def unused(self):
        pass

def caller():
    Box().used()
"""
    dead, defined = unreached({"m": sample})
    assert dead == {"m.exported", "m.Box.unused", "m.caller"}
    assert "m.run" not in defined and "m.main" not in defined
    assert "m.Box.__repr__" not in defined
