"""Benchmark of the ``xferop`` CLI: one workload per run, in a closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory and driven
in-process through ``click.testing.CliRunner``: one client, each cell
starting when the previous one returned.  Passes over the workload's
cells repeat until ``--seconds`` have elapsed (at least one pass).  Every
cell is checked against the outputs pinned in ``expected.json``.  Time
metrics are scaled to the host's full speed by ``speed.SpeedProbe``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` installs
span wrappers before the CLI is imported, runs one pass with the wrappers
switched off and then traced passes, and reports the per-layer metrics.
The last line of standard output is the JSON result; the full record
(environment, per-cell medians, absent trace targets) is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cells
import gate
import speed

# one client, one core: OpenBLAS would otherwise start a thread per core
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 7
# prints when the CLI is importable and the specs resolved, then the probe
# loop's mean duration measured in the same interpreter right after
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import xferop.cli, xferop.specfile\n"
    "for s in sys.argv[3:]:\n"
    "    xferop.specfile.resolve(s)\n"
    "ready = time.monotonic()\n"
    "import speed\n"
    "print(ready, sum(speed.timed_probe() for _ in range(3)) / 3)\n"
)
END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "pass_cpu_s": "s", "slowest_cell_s": "s", "peak_rss_mb": "MB",
}


def load_cli(src: Path, tracer):
    """Import ``xferop.cli`` from ``src``; wrappers go in first when tracing."""
    if not (src / "xferop" / "cli.py").is_file():
        raise SystemExit(f"perfbench: {src / 'xferop' / 'cli.py'} not found; run from the repository root")
    sys.path.insert(0, str(src))
    if tracer is not None:
        import spans

        tracer.install(spans.TARGETS)
    import xferop.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's src/")
    if tracer is not None:
        tracer.install(spans.CLI_TARGETS)
    return cli


def setup_times(src: Path, specs: list[str], n: int) -> list[tuple[float, float]]:
    """(raw, scaled) seconds from spawning an interpreter to CLI imported and specs resolved."""
    out = []
    for _ in range(n):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(src), str(HERE), *specs],
            capture_output=True, text=True, check=True, timeout=120,
        )
        ready, took = (float(v) for v in done.stdout.split()[-2:])
        out.append((ready - t0, (ready - t0) * speed.NOMINAL_S / took))
    return out


class Client:
    """Runs cells through one CliRunner and checks them after each pass."""

    def __init__(self, cli, work: str, seed: int, expected: dict, tracer=None):
        from click.testing import CliRunner

        self.cli, self.work, self.seed, self.expected = cli, work, seed, expected
        self.passes = 0
        self.runner = CliRunner()
        self.tracer = tracer
        if tracer is not None:
            import spans

            self.cli_span = tracer.name_id(spans.CLI_SPAN)
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, args: list[str]):
        if self.tracer is None or not self.tracer.on:
            return self.runner.invoke(self.cli.main, args)
        i = self.tracer.open(self.cli_span)
        try:
            return self.runner.invoke(self.cli.main, args)
        finally:
            self.tracer.close(i)

    def run_pass(self, templates, probe=None) -> dict:
        """Run every cell once; with a ``SpeedProbe`` also report scaled times.

        Pass k hands seed + k to the ``--seed`` options, so a run of several
        passes covers the folded seeds evenly.
        """
        seed = self.seed + self.passes
        self.passes += 1
        results, spans = [], []
        cpu0, t0 = time.process_time(), time.perf_counter()
        for tpl in templates:
            c0 = time.perf_counter()
            results.append(self.invoke(cells.expand(tpl, self.work, seed)))
            spans.append((c0, time.perf_counter()))
        t1, cpu = time.perf_counter(), time.process_time() - cpu0
        for tpl, res in zip(templates, results):
            self.check(tpl, seed, res)
        out = {"wall": t1 - t0, "cpu": cpu, "cells": [b - a for a, b in spans]}
        if probe is not None:
            factor, spent = probe.factor(t0, t1), probe.spent(t0, t1)
            out["scaled"] = {
                "wall": (t1 - t0 - spent) * factor,
                "cpu": (cpu - spent) * factor,
                "cells": [(b - a - probe.spent(a, b)) * probe.factor(a, b) for a, b in spans],
                "speed": factor,
            }
        return out

    def check(self, tpl, seed: int, res):
        key = cells.cell_key(tpl, seed)
        self.attempted += 1
        pinned = self.expected.get(key)
        if pinned is None:
            problems = ["no pinned output"]
        else:
            problems = gate.mismatches(pinned, res.exit_code, gate.normalise(res.output, self.work))
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            problems.append(f"raised {res.exception!r}")
        if problems:
            self.failures.append(f"{key}: " + "; ".join(problems[:3]))


def git_sha(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((src / "xferop").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".json"):
            h.update(p.relative_to(src).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "tail_pct": None, "tail": None}
    if n >= 11:
        pct = 100 * (n - 10) // n
        out["tail_pct"] = pct
        out["tail"] = sorted(values)[max(0, -(-pct * n // 100) - 1)]
    return out


def prepare(client: Client, work: Path):
    """Write the generated specs and require ``xferop validate`` to accept them."""
    for path in cells.write_specs(work):
        res = client.invoke(["validate", "--spec", path])
        if res.exit_code != 0:
            raise SystemExit(f"perfbench: generated spec {path} fails validate:\n{res.output}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(cells.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ.update(BLAS_ENV)
    root = Path.cwd()
    src = root / "src"
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    cli = load_cli(src, tracer)
    import numpy as np

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))["cells"]
    out_dir = root / OUT_DIR
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    templates = cells.WORKLOADS[args.workload]
    client = Client(cli, str(work), args.seed, expected, tracer)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(root),
        "source_sha256": source_digest(src), "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": np.__version__, "blas_env": BLAS_ENV,
    }
    try:
        prepare(client, work)
        if not args.trace:
            specs = [s.replace("{work}", str(work)) for s in cells.WORKLOAD_SPECS[args.workload]]
            setup = setup_times(src, specs, SETUP_PROBES)
        if tracer is None:
            with speed.SpeedProbe() as probe:
                t_start = time.perf_counter()
                passes = [client.run_pass(templates, probe)]
                while time.perf_counter() - t_start < args.seconds:
                    passes.append(client.run_pass(templates, probe))
            record["probe"] = {"samples": len(probe.took), "late": probe.late}
        else:
            untraced = client.run_pass(templates)["wall"]
            tracer.on = True
            t_start = time.perf_counter()
            passes = [client.run_pass(templates)]
            while time.perf_counter() - t_start < args.seconds:
                passes.append(client.run_pass(templates))
            tracer.on = False
    finally:
        shutil.rmtree(work)

    walls = [p["wall"] for p in passes]
    record["pass_s"] = tail(walls)
    record["passes"] = passes
    record["cell_s"] = {
        " ".join(tpl).replace("{work}", "<work>"): statistics.median(p["cells"][i] for p in passes)
        for i, tpl in enumerate(templates)
    }
    if tracer is None:
        record["setup_s"] = setup
        scaled = [p["scaled"] for p in passes]
        values = {
            "setup_s": statistics.median(scaled_setup for _, scaled_setup in setup),
            "pass_s": statistics.median(p["wall"] for p in scaled),
            "pass_cpu_s": statistics.median(p["cpu"] for p in scaled),
            "slowest_cell_s": max(
                statistics.median(p["cells"][i] for p in scaled) for i in range(len(templates))
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        sp = tracer.arrays()
        layer = spans.layer_metrics(sp, tracer.counters, len(passes))
        layer["trace.overhead_ratio"] = (statistics.mean(walls) / untraced, "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        record["untraced_pass_s"] = untraced
        record["absent"] = tracer.absent
        record["spans"] = len(sp.start)
        spans_file = out_dir / f"spans-{args.workload}.npz"
        np.savez(spans_file, names=np.array(sp.names), name=sp.name.astype(np.int32),
                 start=sp.start, end=sp.end, parent=sp.parent.astype(np.int32))
        record["spans_file"] = str(spans_file.relative_to(root))
        for name in tracer.absent:
            print(f"perfbench: trace target {name} is absent", file=sys.stderr)

    failed = len(client.failures)
    record["fail_ratio"] = failed / client.attempted
    record["failures"] = client.failures
    result = {"correct": failed == 0, "attempted": client.attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for line in client.failures[:20]:
        print(f"FAIL {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
