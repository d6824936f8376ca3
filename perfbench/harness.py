"""Shared plumbing of the benchmark: paths, the run context, child processes
of the ``sn-cusum`` CLI and order statistics."""

from dataclasses import dataclass, field
import json
import math
import os
from pathlib import Path
import shutil
import signal
import statistics
import sys
import threading
import time

ROOT = Path(__file__).resolve().parent.parent  # the checkout under test
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

# Exactly what the ``sn-cusum`` console script runs.
CLI_ENTRY = "import sys; from sncusum.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 150
TAIL_PCT = 90


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Context:
    """One benchmark run: its arguments, its scratch directory and the
    correctness tally."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path = field(init=False)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def __post_init__(self):
        tag = f"{self.workload}-s{self.seed}-t{int(self.trace)}{'-smoke' if self.smoke else ''}"
        self.work = WORK_ROOT / tag
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def subdir(self, name: str) -> Path:
        path = self.work / name
        path.mkdir(exist_ok=True)
        return path

    def env(self) -> dict:
        """Environment of CLI children: the checkout's sources, nothing else."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env.update(PYTHONPATH=str(SRC), PYTHONNOUSERSITE="1", HOME=str(self.work))
        return env

    def op(self, problems: list[str]) -> None:
        """Count one operation and its correctness problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def setup_check(self, problems: list[str]) -> None:
        """Problems found in set-up fail the run without counting an op."""
        self.problems.extend(problems)


def run_python(ctx: Context, argv: list[str]) -> Child:
    """Run ``python argv...`` as a child in its own process group and wait for it.

    Wall time runs from spawn to reaping; peak RSS is that of the child and
    of the children it reaped (such as simulation pool workers).
    """
    out, err = ctx.work / "child.out", ctx.work / "child.err"
    wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out), wr, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), wr, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, [sys.executable, *argv], ctx.env(), file_actions=actions, setpgroup=0
    )
    killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.killpg(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return Child(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out.read_text(),
        stderr=err.read_text(),
    )


def run_cli(ctx: Context, *args: str) -> Child:
    return run_python(ctx, ["-c", CLI_ENTRY, *args])


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, int]:
    """Nearest-rank TAIL_PCT percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(TAIL_PCT / 100 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered) - rank
