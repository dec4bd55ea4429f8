"""soilfuzz benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a soilfuzz checkout:

    python3 bench/run.py --workload classify_fuzzy --seed 1 --seconds 15 --trace 0

Each run generates its corpus from ``--seed``, runs the ``soilfuzz`` CLI from
``src/`` as a child process over and over for ``--seconds`` seconds (a closed
loop: one process at a time, the next starts when the last has ended), and
checks every output.  Each full-corpus run is preceded by a one-row run of
the same command and followed by a calibration child that does not use
soilfuzz, so set-up and host speed are sampled across the whole window.
With ``--trace 0`` it reports the end-to-end metrics:

  samples_per_s  samples per reference second of child wall time,
                 interpreter start included: mean samples per second of the
                 full-corpus runs, divided by the host speed the calibration
                 loop measured in the same window (see CALIBRATION)
  setup_s        median wall time of the one-row runs (for induce, with
                 0 iterations)
  peak_rss_mb    median of each full-corpus child's own peak resident
                 memory, from os.wait4

With ``--trace 1`` it also makes one in-process run of ``soilfuzz.cli.main``
with timing wrappers on the module attributes the code calls through (see
tracing.py) and reports per-layer self times and counts instead.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count input rows, and every row of a run whose output fails a
check counts as failed.  Corpora, outputs, spans and a result record with
the seed, Python version and nproc are written under ``.bench_work/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus
from tracing import Installed, Tracer, layer_totals, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 60

# A fixed pure-Python loop, run as a child after every CLI run.  The speed of
# a shared host drifts between levels (up to about 2x) for seconds to tens of
# seconds at a time.  The calibration loop slows with it, so dividing the CLI
# throughput by the loop's speed over the same window cancels the drift.
# Throughput is reported per reference second: a second of a host that runs
# the loop in CALIBRATION_REF_S seconds.
CALIBRATION = """
table = {}
for i in range(350000):
    key = i % 97
    table[key] = table.get(key, 0.0) + max(min(i * 0.5, key * 1.5), 0.0)
"""
CALIBRATION_REF_S = 0.5
MAX_PROBLEMS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    rows: int
    # Induction proposals per run, or None for commands that take none.
    iterations: int | None
    check_name: str

    def argv(self, seed: int, iterations: int | None, src: Path, out: Path) -> list[str]:
        argv = list(self.flags)
        if iterations is not None:
            argv += ["--seed", str(seed), "--iters", str(iterations)]
        return argv + [str(src), "-o", str(out)]

    @property
    def samples(self) -> int:
        # Each induction proposal re-classifies every training row.
        return self.rows * ((self.iterations or 0) + 1)


# Why these three: classify_fuzzy is the paper's main path through every
# module; memberships_json fuzzifies and renders but never evaluates a rule,
# so it is the control for rule-engine changes; induce_search re-scores the
# whole corpus after each one-rule change, so it favours evaluators that are
# cheap to rebuild over ones that are fast only once compiled.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("classify_fuzzy", ("classify", "--preset", "paper"), 5000, None, "check_classify"),
        Workload("memberships_json", ("memberships", "--format", "json"), 3000, None, "check_memberships"),
        Workload("induce_search", ("induce",), 250, 50, "check_induce"),
    )
}

SELF_TIME_LAYERS = (
    "cli.read_samples", "cli.write", "hrb.classify_hrb", "hrb.fuzzify_sample",
    "hrb.load_variables", "hrb.load_preset", "fuzzy.fuzzify", "rules.classify",
    "rules.rule_dof", "rules.score_rulebase", "rules.search_rules", "render",
    "dsl.parse_rules", "dsl.serialize",
)
CALL_LAYERS = (
    "hrb.classify_hrb", "hrb.fuzzify_sample", "fuzzy.fuzzify", "rules.classify",
    "rules.rule_dof", "rules.score_rulebase", "render",
)


def _on_alarm(signum, frame):
    raise TimeoutError(f"a child process took longer than {CHILD_TIMEOUT_S} s")


@dataclass(frozen=True)
class Child:
    wall_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(cmd: list[str], console_path: Path, env: dict) -> Child:
    """Run a child process and wait for it, timing it and reading its own
    rusage (RUSAGE_CHILDREN would be a maximum over all children so far)."""
    with open(console_path, "wb") as console:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            stdin=subprocess.DEVNULL, stdout=console, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT,
        )
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024, proc.returncode)


def run_cli(argv: list[str], console_path: Path, env: dict) -> Child:
    return run_child([sys.executable, "-m", "soilfuzz.cli", *argv], console_path, env)


def run_calibration(console_path: Path, env: dict) -> float:
    """Wall time of one calibration child; it does not use soilfuzz."""
    child = run_child([sys.executable, "-c", CALIBRATION], console_path, env)
    if child.exit_code != 0:
        raise RuntimeError(f"calibration loop exited with code {child.exit_code}")
    return child.wall_s


@dataclass
class Session:
    """Runs and checks one workload's CLI invocations, tallying failed rows."""

    workload: Workload
    seed: int
    work: Path
    env: dict
    check: Callable
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def _verify(self, rows, src: Path, iterations, output: bytes, console: str) -> list[str]:
        digest = hashlib.sha256(output).hexdigest()
        first = self.digests.setdefault(src, digest)
        problems = [] if digest == first else ["output bytes differ from the first run"]
        try:
            problems += self.check(output.decode("utf-8"), console, rows, self.seed, iterations)
        except (UnicodeDecodeError, KeyError, IndexError, TypeError, AttributeError) as exc:
            problems.append(f"output check raised {exc!r}")
        return problems

    def _tally(self, rows, problems: list[str]) -> None:
        self.attempted += len(rows)
        if problems:
            self.failed += len(rows)
            self.problems += problems[: MAX_PROBLEMS - len(self.problems)]

    def run(self, rows, src: Path, iterations) -> Child:
        out = self.work / f"{src.stem}.out"
        out.unlink(missing_ok=True)
        console_path = self.work / "console.txt"
        child = run_cli(self.workload.argv(self.seed, iterations, src, out), console_path, self.env)
        console = console_path.read_text(encoding="utf-8", errors="replace")
        if child.exit_code != 0 or not out.exists():
            problems = [f"exit code {child.exit_code}: {console[:200]!r}"]
        else:
            problems = self._verify(rows, src, iterations, out.read_bytes(), console)
        self._tally(rows, problems)
        return child

    def traced_run(self, rows, src: Path, iterations):
        """One in-process run of ``soilfuzz.cli.main`` under the tracer."""
        from soilfuzz import cli

        out = self.work / "traced.out"
        out.unlink(missing_ok=True)
        tracer = Tracer()
        console = io.StringIO()
        argv = self.workload.argv(self.seed, iterations, src, out)
        with Installed(tracer) as installed:
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                start = time.perf_counter()
                code = cli.main(argv)
                wall = time.perf_counter() - start
        if code != 0 or not out.exists():
            problems = [f"traced run exit code {code}: {console.getvalue()[:200]!r}"]
        else:
            problems = self._verify(rows, src, iterations, out.read_bytes(), console.getvalue())
        self._tally(rows, problems)
        return tracer, installed.absent, wall


def improved_share(tracer) -> float:
    """Iterations that raised the best score, over all iterations."""
    if not tracer.best_scores:
        return 0.0
    prev, improved = tracer.first_score, 0
    for best in tracer.best_scores:
        improved += best > prev
        prev = best
    return improved / len(tracer.best_scores)


def end_to_end_metrics(
    timed: list[Child], setup: list[float], calibration: list[float], samples: int
) -> dict:
    speed = CALIBRATION_REF_S / statistics.fmean(calibration)
    return {
        "samples_per_s": (samples / statistics.fmean(c.wall_s for c in timed) / speed, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in timed), "MB"),
    }


def layer_metrics(
    tracer, absent: set[str], traced_wall: float, untraced_wall: float, failed_share: float
) -> dict:
    totals = layer_totals(tracer.spans)
    metrics = {}
    for layer in SELF_TIME_LAYERS:
        if layer not in absent:
            metrics[f"{layer}.s"] = (totals.get(layer, (0.0, 0))[0], "s")
    for layer in CALL_LAYERS:
        if layer not in absent:
            metrics[f"{layer}.calls"] = (totals.get(layer, (0.0, 0))[1], "count")
    if "cli.read_samples" not in absent:
        metrics["cli.read_samples.rows"] = (tracer.rows_read, "count")
    if "cli.write" not in absent:
        metrics["cli.write.bytes"] = (tracer.bytes_written, "bytes")
    if not absent & {"rules.search_rules", "rules.score_rulebase"}:
        metrics["rules.search_rules.improved_share"] = (improved_share(tracer), "share")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["failed_share"] = (failed_share, "share")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one soilfuzz benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "soilfuzz" / "cli.py").is_file():
        print(f"bench: no soilfuzz sources under {SRC}; run from a soilfuzz checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks

    os.environ.pop("SOILFUZZ_PRESET_DIR", None)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = WORKLOADS[args.workload]
    labeled = workload.iterations is not None
    work = WORK / f"{workload.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    rows = corpus.generate(args.seed, workload.rows)
    corpus_path = work / "corpus.csv"
    corpus_path.write_text(corpus.to_csv(rows, labeled), encoding="utf-8")
    one_row_path = work / "one-row.csv"
    one_row_path.write_text(corpus.to_csv(rows[:1], labeled), encoding="utf-8")
    setup_iterations = 0 if labeled else None

    session = Session(workload, args.seed, work, env, getattr(checks, workload.check_name))
    # Warm-up: compiles bytecode caches, which users do not pay on every run.
    session.run(rows[:1], one_row_path, setup_iterations)
    timed, setup, calibration = [], [], []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        setup.append(session.run(rows[:1], one_row_path, setup_iterations).wall_s)
        timed.append(session.run(rows, corpus_path, workload.iterations))
        calibration.append(run_calibration(work / "console.txt", env))
    untraced_wall = statistics.median(c.wall_s for c in timed)

    absent: set[str] = set()
    if args.trace:
        tracer, absent, traced_wall = session.traced_run(rows, corpus_path, workload.iterations)
        write_spans(tracer.spans, work / "spans.tsv")
        metrics = layer_metrics(
            tracer, absent, traced_wall, untraced_wall, session.failed / session.attempted
        )
    else:
        metrics = end_to_end_metrics(timed, setup, calibration, workload.samples)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "rows": len(rows),
        "iterations": workload.iterations,
        "timed_runs": len(timed),
        "calibration_mean_s": statistics.fmean(calibration),
        "output_sha256": session.digests.get(corpus_path),
        "absent_layers": sorted(absent),
        "problems": session.problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    for key in ("workload", "seed", "python", "nproc", "rows", "iterations",
                "timed_runs", "calibration_mean_s", "output_sha256"):
        print(f"{key}: {record[key]}")
    for layer in sorted(absent):
        print(f"absent layer: {layer}")
    for problem in session.problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
