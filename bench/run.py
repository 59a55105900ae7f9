"""Benchmark for the afg pipeline: one workload, one seed, one result line.

    python3 bench/run.py --workload grade-model --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, then runs the real CLI
entry point ``afg.cli.main`` in this process, again and again, until
``--seconds`` have passed. Every command writes a fresh output directory
and its outputs are checked. A fixed reference task (calibrate.py) runs
between commands. With ``--trace 0`` the last stdout line reports the
end-to-end metrics: medians over the commands of their times scaled to the
reference machine speed. With ``--trace 1`` untraced and traced commands
alternate and it reports per-layer self times from spans recorded around
afg's public functions (see tracer.py). Details are in README.md.

The program is built from ``src/`` next to this directory; without it the
script exits 2.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

from calibrate import NOMINAL_NS, reference_ns
from tracer import TRACED, FirstCall, Tracer, percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_COMMANDS = 4
# No command starts later than this after the script started, whatever
# --seconds says, so a run ends inside three minutes.
HARD_LIMIT_S = 150.0

END_TO_END = {
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "label_accuracy": "ratio",
}
WORKLOADS = ("grade-model", "grade-oracle", "train-classifier")
LATENCY_SPANS = ("nn.classify_sentence", "nn.predict_score")


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, fn in TRACED:
        units[f"{module}.{fn}.self_s"] = "s"
        units[f"{module}.{fn}.calls"] = "count"
    for name in LATENCY_SPANS:
        units[f"{name}.p50_us"] = "us"
        units[f"{name}.p99_us"] = "us"
    units.update({
        "textproc.tokens": "count",
        "textproc.unk_rate": "ratio",
        "feedback.comments": "count",
        "wall.items_per_s": "items/s",
        "wall.setup_s": "s",
        "machine.ref_ms": "ms",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


@dataclass
class Command:
    """One timed run of the CLI command."""

    wall_ns: int
    setup_ns: int
    ok: bool
    label_accuracy: float
    trace: object = None
    cpu: tuple[float, float] = (0.0, 0.0)  # user and system seconds
    ref_ns: float = NOMINAL_NS  # reference task time around this command

    def scaled(self, ns: int) -> float:
        """``ns`` of this command in seconds at the nominal machine speed."""
        return ns * NOMINAL_NS / self.ref_ns / 1e9


def _empty_outputs(out: Path) -> None:
    """Truncate earlier outputs and stamp them with mtime 0.

    The command then rewrites each file in place. Freeing the old files'
    disk blocks happens here, outside the timed region; the stamp lets a
    file the command did not rewrite be told apart.
    """
    for path in out.rglob("*"):
        if path.is_file():
            os.truncate(path, 0)
            os.utime(path, (0, 0))


def _stale_outputs(out: Path) -> list[str]:
    return [str(p.relative_to(out)) for p in out.rglob("*")
            if p.is_file() and p.stat().st_mtime == 0]


def run_command(workload, modules, traced: bool, out: Path) -> Command:
    from workloads import CheckFailed  # imports afg, so only after main() set the path

    _empty_outputs(out)
    gc.collect()
    first = FirstCall(modules[workload.first_item[0]], workload.first_item[1])
    tracer = Tracer(modules) if traced else None
    entry = tracer.entry if traced else modules["cli"].main
    stdout = io.StringIO()
    try:
        with redirect_stdout(stdout):
            times0 = os.times()
            t0 = perf_counter_ns()
            try:
                rc = entry(workload.argv(out))
            except Exception:  # a crash fails this command's items; the run goes on
                traceback.print_exc()
                rc = None
            t1 = perf_counter_ns()
            times1 = os.times()
    finally:
        if tracer is not None:
            tracer.remove()
        first.remove()
    setup_ns = (first.at_ns if first.at_ns is not None else t1) - t0
    try:
        stale = _stale_outputs(out)
        if stale:
            raise CheckFailed(f"{len(stale)} files not rewritten, e.g. {stale[0]}")
        accuracy = workload.check(out, rc, stdout.getvalue())
        ok = True
    except (CheckFailed, KeyError, TypeError) as exc:
        print(f"{workload.name}: output check failed: {exc!r}", file=sys.stderr)
        accuracy, ok = 0.0, False
    cpu = (times1.user - times0.user, times1.system - times0.system)
    return Command(t1 - t0, setup_ns, ok, accuracy, tracer.trace if traced else None, cpu)


def measure(workload, modules, seconds: float, trace: bool, out: Path, deadline: float):
    """Run commands until ``seconds`` pass; traced runs alternate the order of each pair.

    Every command writes into the same ``out`` directory, as a user
    re-running a command would; before each command the last command's
    files are emptied, untimed. So no file is created or deleted and no
    disk block is freed while measuring; README.md says why that matters.

    The reference task runs before the first command and after each one;
    a command's ``ref_ns`` is the mean of the two runs next to it.
    """
    untraced, traced = [], []
    start = perf_counter()
    rounds = 0
    before = reference_ns()
    while True:
        order = ((False, True) if rounds % 2 == 0 else (True, False)) if trace else (False,)
        for t in order:
            command = run_command(workload, modules, t, out)
            after = reference_ns()
            command.ref_ns = (before + after) / 2
            before = after
            (traced if t else untraced).append(command)
        rounds += 1
        now = perf_counter()
        if (rounds >= MIN_COMMANDS and now - start >= seconds) or now >= deadline:
            return untraced, traced


def end_to_end_metrics(workload, commands: list[Command]) -> dict[str, float]:
    return {
        "items_per_s": statistics.median(workload.items / c.scaled(c.wall_ns) for c in commands),
        "setup_s": statistics.median(c.scaled(c.setup_ns) for c in commands),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "label_accuracy": statistics.median(c.label_accuracy for c in commands),
    }


def check_attribution(trace, wall_ns: int) -> str | None:
    """Self times must add up to the traced command's wall time."""
    try:
        root = trace.root_ns()
    except ValueError as exc:
        return str(exc)
    total_self = sum(trace.self_ns())
    if total_self != root:
        return f"self times sum to {total_self} ns, root span is {root} ns"
    if abs(wall_ns - total_self) > max(0.01 * wall_ns, 1e6):
        return f"self times sum to {total_self} ns, command wall is {wall_ns} ns"
    return None


def per_layer_metrics(items: int, untraced: list[Command],
                      traced: list[Command]) -> dict[str, float]:
    per_command = [c.trace.by_name() for c in traced]
    metrics: dict[str, float] = {}
    for module, fn in TRACED:
        name = f"{module}.{fn}"
        metrics[f"{name}.self_s"] = statistics.median(
            d.get(name, (0, 0))[0] / 1e9 for d in per_command)
        metrics[f"{name}.calls"] = statistics.median(d.get(name, (0, 0))[1] for d in per_command)
    for name in LATENCY_SPANS:
        durations = [d for c in traced for d in c.trace.durations_ns(name)]
        metrics[f"{name}.p50_us"] = percentile(durations, 50) / 1e3
        metrics[f"{name}.p99_us"] = percentile(durations, 99) / 1e3
    counters = [c.trace.counters for c in traced]
    tokens = sum(k.tokens for k in counters)
    metrics["textproc.tokens"] = statistics.median(k.tokens for k in counters)
    metrics["textproc.unk_rate"] = sum(k.unk_tokens for k in counters) / tokens if tokens else 0.0
    metrics["feedback.comments"] = statistics.median(k.comments for k in counters)
    metrics["wall.items_per_s"] = statistics.median(items * 1e9 / c.wall_ns for c in untraced)
    metrics["wall.setup_s"] = statistics.median(c.setup_ns / 1e9 for c in untraced)
    metrics["machine.ref_ms"] = statistics.median(c.ref_ns / 1e6 for c in untraced + traced)
    traced_wall = statistics.median(c.wall_ns / 1e9 for c in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(c.wall_ns / 1e9 for c in untraced)
    return metrics


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    """What a reader needs to judge the spread of these numbers."""
    import numpy

    digest = hashlib.blake2b(digest_size=16)
    for path in sorted((SRC / "afg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": _git_sha(),
        "src_blake2b": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_start": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="afg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply input sizes (the smoke test uses a tiny scale)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    deadline = perf_counter() + HARD_LIMIT_S
    args = parse_args(argv)
    if not (SRC / "afg" / "cli.py").is_file():
        print(f"error: no afg sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # One process, one thread: the encoder's matrices are far too small to
    # gain from BLAS threads, and extra threads only add noise on 2 cores.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import afg
    from afg import cli, feedback, ingest, nn, scoring, structure, textproc

    if Path(afg.__file__).resolve().parent != SRC / "afg":
        print(f"error: imported afg from {afg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    modules = {"cli": cli, "feedback": feedback, "ingest": ingest, "nn": nn,
               "scoring": scoring, "structure": structure, "textproc": textproc}
    env = environment()

    work = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = workloads.prepare(args.workload, work, args.seed, args.scale)
        untraced, traced = measure(workload, modules, args.seconds, bool(args.trace),
                                   work / "out", deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    commands = untraced + traced
    failed = sum(workload.items for c in commands if not c.ok)
    attempted = workload.items * len(commands)
    problems = [p for p in (check_attribution(c.trace, c.wall_ns) for c in traced) if p]
    if args.trace:
        metrics, units = per_layer_metrics(workload.items, untraced, traced), per_layer_units()
    else:
        metrics, units = end_to_end_metrics(workload, untraced), END_TO_END
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "sizes": workload.sizes,
        "environment": env,
        "nominal_ref_ms": NOMINAL_NS / 1e6,
        "commands": [{"wall_s": c.wall_ns / 1e9, "setup_s": c.setup_ns / 1e9,
                      "user_s": c.cpu[0], "sys_s": c.cpu[1],
                      "ref_ms": c.ref_ns / 1e6, "ok": c.ok,
                      "traced": c.trace is not None} for c in commands],
        "result": result,
    }
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if traced:
        (results / f"{args.workload}-spans.json").write_text(
            json.dumps(traced[-1].trace.to_json()) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"commands {len(commands)} sizes {json.dumps(workload.sizes)}")
    print(f"environment {json.dumps(env)}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
