"""Pin the outputs the correctness gate compares against.

Run from the repository root at the commit whose behaviour is the
reference; it rewrites ``perfbench/expected.json``:

    python3 perfbench/pin.py

Seeded cells are pinned once per folded seed (``cells.PINNED_SEEDS``).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import cells
import gate
import run


def main() -> int:
    os.environ.update(run.BLAS_ENV)
    root = Path.cwd()
    cli = run.load_cli(root / "src", None)
    work = root / run.OUT_DIR / f"pin-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    client = run.Client(cli, str(work), 0, {})
    pinned = {}
    try:
        run.prepare(client, work)
        for seed in range(cells.PINNED_SEEDS):
            for templates in cells.WORKLOADS.values():
                for tpl in templates:
                    key = cells.cell_key(tpl, seed)
                    if key in pinned:
                        continue
                    res = client.invoke(cells.expand(tpl, str(work), seed))
                    if res.exception is not None and not isinstance(res.exception, SystemExit):
                        raise SystemExit(f"perfbench: {key} raised {res.exception!r}")
                    pinned[key] = {"exit": res.exit_code, "lines": gate.normalise(res.output, str(work))}
    finally:
        shutil.rmtree(work)
    doc = {"pinned_at": run.git_sha(root), "source_sha256": run.source_digest(root / "src"),
           "cells": pinned}
    (run.HERE / "expected.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} cells", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
