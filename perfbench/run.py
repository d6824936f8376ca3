"""Benchmark of sn-cusum: two user workloads and a traced per-layer breakdown.

    python3 perfbench/run.py --workload analyst --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``
and starts the CLI from there, and writes only under ``.perfbench-work/``.

Workloads (``workloads.py``):

* ``analyst``     set-up ``sn-cusum nulldist``; op = one cold ``sn-cusum test``
                  subprocess, work = tests
* ``long_series`` set-up ``simulate_null(FULL_RATIO)``; op = one in-process
                  decision at n = 2e4 .. 2e5, work = observations

The rejection-rate grid (``sn-cusum simulate``) is timed only by the traced
run, at 1 and at nproc workers: as a third workload its few multi-second
ops spread too much between runs of a length the benchmark can afford.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``op_p50_s``,
``op_tail_s`` (nearest-rank p90), ``work_per_s`` (total work over total op
time) and ``peak_rss_mb`` of the processes that run the ops. ``--trace 1``
reports the per-layer metrics of ``layers.py``. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a readable table and the run's provenance. The exit code is 1 when a correctness check
failed and 2 when the checkout has no package sources.

``--smoke`` shrinks the null samples and the simulated grid so that a run
takes seconds (``perfbench/tests/test_smoke.py``).
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import time

from harness import ROOT, SRC, TAIL_PCT, Context, nproc

KEEP = ("result.json", "spans.jsonl")


def git_commit() -> str | None:
    """HEAD of the checkout, read without starting git (None outside git)."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies a non-git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(ctx: Context, load_before, elapsed: float, metrics: dict) -> dict:
    import numpy
    import scipy
    import sncusum

    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "trace": ctx.trace,
        "smoke": ctx.smoke,
        "run_seconds": ctx.seconds,
        "elapsed_s": elapsed,
        "ops": metrics.get("_ops"),
        "rounds": metrics.get("_rounds"),
        "attempted": ctx.attempted,
        "tail_percentile": TAIL_PCT,
        "tail_samples_beyond": metrics.get("_tail_beyond"),
        "op_seconds": metrics.get("_walls"),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sncusum": sncusum.__version__,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "attribution_within_tolerance": metrics.get("_attribution_ok"),
        "span_counts": metrics.get("_counts"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("analyst", "long_series"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind normally, so that a running CLI child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "sncusum" / "__init__.py").is_file():
        print(f"run.py: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sncusum

    if not os.path.realpath(sncusum.__file__).startswith(os.path.realpath(SRC)):
        print(f"run.py: sncusum imported from {sncusum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    load_before = os.getloadavg()
    started = time.perf_counter()
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    setup = workloads.SETUPS[ctx.workload](ctx)
    metrics = {}
    if not ctx.problems:
        if ctx.trace:
            full = setup.get("sample")
            if full is None:
                full = sncusum.load_sample(setup["null_dir"] / "full-ratio.snq")
            metrics = layers.run(ctx, full)
        else:
            metrics = workloads.RUNS[ctx.workload](ctx, setup)
    if ctx.problems and not ctx.failed:  # a set-up failure
        ctx.attempted, ctx.failed = ctx.attempted + 1, ctx.failed + 1
    record = provenance(ctx, load_before, time.perf_counter() - started, metrics)

    reported = {name: {"value": v[0], "unit": v[1]}
                for name, v in metrics.items() if not name.startswith("_")}
    result = {"correct": not ctx.problems, "attempted": max(ctx.attempted, 1),
              "failed": ctx.failed, "metrics": reported}
    (ctx.work / "result.json").write_text(
        json.dumps({**result, "provenance": record, "problems": ctx.problems}, indent=1))
    for path in ctx.work.iterdir():
        if path.name not in KEEP:
            shutil.rmtree(path) if path.is_dir() else path.unlink()

    for problem in ctx.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"# {ctx.workload}  trace={int(ctx.trace)}  seed={ctx.seed}  "
          f"{workloads.OP_MEANING[ctx.workload] if not ctx.trace else 'per-layer probes'}")
    for name, item in reported.items():
        print(f"{name:<34} {item['value']:>16.6g} {item['unit']}")
    print(f"{'fail_ratio':<34} {ctx.failed / result['attempted']:>16.6g} failed/attempted")
    if "_attribution_ok" in metrics:
        verdict = "within" if metrics["_attribution_ok"] else "OUTSIDE"
        print(f"attribution: the layer sum is {verdict} {layers.ATTRIBUTION_TOLERANCE:.0%} "
              "of cli.cold_test_s")
    print("provenance " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
