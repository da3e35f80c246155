"""Workloads: the specs the benchmark writes and the CLI cells of one pass.

A cell is the argument list of one ``xferop`` invocation.  ``{work}``
stands for the run's scratch directory and ``{seed}`` for the seed handed
to every ``--seed`` option.  The workload seed is folded onto
``PINNED_SEEDS`` values, because outputs are pinned per seed.
"""

from __future__ import annotations

import json
from pathlib import Path

PINNED_SEEDS = 4

# the bundled specs at the commit the outputs were pinned at; a spec added
# later is not part of this workload
BUNDLED = ("tent_std", "tent_half", "doubling", "halving", "loop1", "loops2", "fullshift2")

# 20 subcommands; ``rep`` runs in its orbit mode
COMMANDS = (
    ("validate",), ("region",), ("domain",), ("rep", "orbit"), ("relations",),
    ("spectrum",), ("quasi-orbits",),
    ("check", "free"), ("check", "minimal"), ("check", "contracting"),
    ("check", "one-circuit"), ("check", "simple"), ("check", "pure-infinite"),
    ("conformal",), ("kms-verify",),
    ("groupoid", "build"), ("groupoid", "gap"), ("groupoid", "iso-check"),
    ("groupoid", "graph-gen"), ("report",),
)
SEEDED = {("relations",), ("kms-verify",), ("groupoid", "iso-check")}

# these tent_std cells repeat the depth-8 minimal scan that ``verdicts`` times
SCAN_CELLS = {("check", "minimal"), ("check", "simple"), ("check", "pure-infinite"), ("report",)}


def _closed(lo: str, hi: str) -> dict:
    return {"lo": lo, "hi": hi, "lo_closed": True, "hi_closed": True}


def _affine(slope: str, intercept: str) -> dict:
    return {"pieces": [{"interval": _closed("0", "1"), "slope": slope, "intercept": intercept}],
            "overrides": []}


def generated_specs() -> dict[str, dict]:
    """Specs with a non-constant energy, so ``conformal`` bisects for real."""
    tent = {
        "name": "tent_x", "backend": "interval", "depth_bound": 24,
        "space": [_closed("0", "1")],
        "branches": [
            {"domain": _closed("0", "1/2"), "slope": "2", "intercept": "0"},
            {"domain": _closed("1/2", "1"), "slope": "-2", "intercept": "2"},
        ],
        "potential": {"pieces": [{"interval": _closed("0", "1"), "slope": "0", "intercept": "1/2"}],
                      "overrides": [{"point": "1/2", "value": "1"}]},
        "psi": _affine("1", "0"),
        "notes": "tent_std with energy psi(x) = x",
    }
    doubling = {
        "name": "doubling_x_half", "backend": "interval", "depth_bound": 24,
        "space": [_closed("0", "1")],
        "branches": [
            {"domain": {"lo": "0", "hi": "1/2", "lo_closed": True, "hi_closed": False},
             "slope": "2", "intercept": "0"},
            {"domain": _closed("1/2", "1"), "slope": "2", "intercept": "-1"},
        ],
        "potential": _affine("0", "1/2"),
        "psi": _affine("1", "1/2"),
        "notes": "doubling with energy psi(x) = x + 1/2",
    }
    golden = {
        "name": "golden_mean", "backend": "graph", "depth_bound": 24,
        "vertices": ["a", "b"],
        "edges": [{"name": "aa", "src": "a", "rng": "a"},
                  {"name": "ab", "src": "a", "rng": "b"},
                  {"name": "ba", "src": "b", "rng": "a"}],
        "truncation_depth": 8,
        "weights": {"aa": "1", "ab": "1", "ba": "1"},
        "psi_weights": {"aa": "1", "ab": "2", "ba": "3/2"},
        "notes": "golden-mean shift: no two consecutive visits to b",
    }
    return {s["name"]: s for s in (tent, doubling, golden)}


def write_specs(work: Path) -> list[str]:
    """Write the generated specs into ``work``; return their paths."""
    paths = []
    for name, doc in generated_specs().items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def _spec_ref(spec: str) -> str:
    return spec if spec in BUNDLED else f"{{work}}/{spec}.json"


def _matrix_cell(cmd: tuple, spec: str) -> tuple:
    args = (*cmd, "--spec", _spec_ref(spec))
    if cmd == ("conformal",):
        args += ("--candidate-out", f"{{work}}/cand_{spec}.json")
    if cmd == ("kms-verify",):
        args += ("--candidate", f"{{work}}/cand_{spec}.json")
    if cmd in SEEDED:
        args += ("--seed", "{seed}")
    return args


WORKLOADS: dict[str, tuple] = {
    "verdicts": (
        ("check", "minimal", "--spec", "tent_std"),
        ("report", "--spec", "tent_std"),
    ),
    "conformal": (
        ("conformal", "--spec", "{work}/tent_x.json", "--bracket", "0.5,6.0", "--bins", "256",
         "--candidate-out", "{work}/cand_tent_256.json"),
        ("conformal", "--spec", "{work}/tent_x.json", "--bracket", "0.5,6.0", "--bins", "512",
         "--candidate-out", "{work}/cand_tent_512.json"),
        ("conformal", "--spec", "{work}/doubling_x_half.json", "--bins", "256",
         "--candidate-out", "{work}/cand_doubling_256.json"),
        ("kms-verify", "--spec", "{work}/tent_x.json", "--candidate", "{work}/cand_tent_256.json",
         "--seed", "{seed}"),
        ("kms-verify", "--spec", "{work}/doubling_x_half.json",
         "--candidate", "{work}/cand_doubling_256.json", "--seed", "{seed}"),
    ),
    "cli-matrix": tuple(
        _matrix_cell(cmd, spec)
        for spec in (*BUNDLED, "golden_mean")
        for cmd in COMMANDS
        if not (spec == "tent_std" and cmd in SCAN_CELLS)
    ),
}

# what ``setup_s`` resolves besides importing the CLI
WORKLOAD_SPECS = {
    "verdicts": ("tent_std",),
    "conformal": ("{work}/tent_x.json", "{work}/doubling_x_half.json"),
    "cli-matrix": (*BUNDLED, "{work}/golden_mean.json"),
}


def expand(template: tuple, work: str, seed: int) -> list[str]:
    """Concrete arguments of one cell for a run."""
    folded = str(seed % PINNED_SEEDS)
    return [a.replace("{work}", work).replace("{seed}", folded) for a in template]


def cell_key(template: tuple, seed: int) -> str:
    """Key of a cell's pinned output; seeded cells are pinned per folded seed."""
    return " ".join(expand(template, "<work>", seed))
