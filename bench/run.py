"""Benchmark of the ``fibcat`` command line.

    python3 bench/run.py --workload fibration --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn
    python3 bench/run.py --smoke --trace 1              # seconds-long check run

One process and one closed-loop caller: each command runs in-process through
``fibcat.cli.main(argv, out)`` on seeded workspace files as soon as the
previous one returns, and its output is checked against an answer the
benchmark worked out itself.  A fixed reference computation is timed right
before each command, and the gated command metrics are command times over
reference times.  A run makes five set-ups, each followed by whole passes
over the workload's commands for a fifth of ``--seconds``.  With
``--trace 0`` the last line
of stdout is a JSON object with the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a traced run.  README.md defines every
metric.  ``--smoke`` makes one pass at tiny sizes, with every output check
and no timing gates.  The exit code is 0 when the run completed, whether or
not every output was right; the JSON says which.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups, spread over the run


def reference():
    """A fixed computation timed right before every command: dict, tuple
    and string work like fibcat's, but no fibcat code.  On a shared machine
    the speed of the whole process drifts by up to 1.7x within seconds; a
    command's time over the reference's time just before it cancels that
    drift, and is what the gated metrics are made of."""
    table = {}
    for i in range(2000):
        table[(i, i % 7)] = str(i)
    return sum(len(v) for k, v in table.items() if k[1] == 3)


class Sample(NamedTuple):
    cmd: object
    seconds: float  # argv to last output line
    ref_seconds: float  # the reference computation just before
    span_seconds: float  # traced runs: the self time its spans account for


class Caller:
    """The single caller: runs one command, times it, checks its output."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, cmd):
        """(command seconds, reference seconds)."""
        gc.disable()  # a collection belongs to the command that made the garbage
        start = time.perf_counter()
        reference()
        ref_seconds = time.perf_counter() - start
        gc.enable()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            code = self.cli.main(cmd.argv, out)
        except Exception:  # an exception escaping fibcat is a failed command
            elapsed = time.perf_counter() - start
            why = "raised\n" + traceback.format_exc()
        else:
            elapsed = time.perf_counter() - start
            why = cmd.check(code, out.getvalue().splitlines())
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"WRONG {cmd.size} {cmd.kind}: {why}", file=sys.stderr)
        return elapsed, ref_seconds


def passes(caller, commands, deadline, tracer=None):
    """Whole passes over ``commands`` until ``deadline`` on the
    ``time.perf_counter`` clock (at least one); a Sample per command run."""
    samples = []
    while not samples or time.perf_counter() < deadline:
        for cmd in commands:
            if tracer:
                tracer.begin(len(samples))
            elapsed, ref_seconds = caller.run(cmd)
            samples.append(Sample(cmd, elapsed, ref_seconds, tracer.end() if tracer else 0.0))
    return samples


def load_fibcat():
    """Import fibcat from this checkout's src/, never from elsewhere."""
    if not (SRC / "fibcat" / "cli.py").is_file():
        raise SystemExit(f"error: no fibcat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fibcat.cli

    if Path(fibcat.__file__).resolve().parent != SRC / "fibcat":
        raise SystemExit(f"error: imported fibcat from {fibcat.__file__}, not {SRC}")
    return fibcat.cli


def end_to_end(samples, setup_s):
    """The gated metrics: command times in units of the reference
    computation timed just before each, set-up time and memory."""
    ratios = [x.seconds / x.ref_seconds for x in samples]
    return {
        "cmd_ref.p50": (statistics.median(ratios), "ref"),
        "cmd_ref.p90": (statistics.quantiles(ratios, n=10)[-1], "ref"),
        "cmds_per_ref": (len(ratios) / sum(ratios), "1/ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def in_seconds(samples):
    """The same command-time statistics in seconds, which drift with the
    machine's speed; printed, not gated."""
    times = [x.seconds for x in samples]
    return {
        "cmd_s.p50": (statistics.median(times), "s"),
        "cmd_s.p90": (statistics.quantiles(times, n=10)[-1], "s"),
        "cmds_per_s": (len(times) / sum(times), "1/s"),
        "ref_s.p50": (statistics.median(x.ref_seconds for x in samples), "s"),
    }


def print_kinds(samples, traced=False):
    """One line per command kind and size: count and median time, and in a
    traced run the self time the spans account for and the residual."""
    kinds = {}
    for x in samples:
        kinds.setdefault((x.cmd.size, x.cmd.kind), []).append((x.seconds, x.span_seconds))
    for (size, kind), rows in sorted(kinds.items()):
        line = f"  {size:5} {kind:24} n={len(rows):5}  median {1e3 * statistics.median(t for t, _ in rows):9.3f} ms"
        if traced:
            total, in_spans = sum(t for t, _ in rows), sum(s for _, s in rows)
            line += f"  traced {1e3 * total / len(rows):9.3f} ms = spans {1e3 * in_spans / len(rows):9.3f}" \
                    f" + residual {1e3 * (total - in_spans) / len(rows):7.3f} ms"
        print(line)


def set_up(caller, args, workdir):
    """Seeded generation, known answers and workspace writes, then one
    untimed warm-up of each command kind at the small size.  Returns one
    pass of commands and the seconds taken."""
    start = time.perf_counter()
    commands = workloads.build(args.workload, args.seed, str(workdir), args.smoke)
    warm_up = {}
    for cmd in commands:
        if cmd.size == "small":
            warm_up.setdefault(cmd.kind, cmd)
    for cmd in warm_up.values():
        caller.run(cmd)
    return commands, time.perf_counter() - start


def traced_metrics(caller, commands, untraced, seconds, args):
    """Run the same passes with every layer wrapped; per-layer metrics, the
    tracing overhead against the untraced samples, and the residual."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = passes(caller, commands, time.perf_counter() + seconds, tracer)
    finally:
        tracer.uninstall()
    traced_time = sum(x.seconds for x in traced)
    metrics = tracer.metrics(len(traced))
    untraced_rate = len(untraced) / sum(x.seconds for x in untraced)
    metrics["trace.overhead"] = (untraced_rate * traced_time / len(traced), "ratio")
    metrics["trace.residual_share"] = (1 - sum(x.span_seconds for x in traced) / traced_time, "ratio")
    print(f"traced: {len(traced) // len(commands)} passes ({len(traced)} samples); "
          f"tracing slows commands by {metrics['trace.overhead'][0]:.3f}x; "
          f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped")
    print_kinds(traced, traced=True)
    spans_dir = BENCH / ".trace"
    spans_dir.mkdir(exist_ok=True)
    tracer.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
    return metrics


def run_workload(args):
    cli = load_fibcat()
    import_s = time.perf_counter() - T_START
    caller = Caller(cli)
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        seconds = 0 if args.smoke else args.seconds
        if args.trace:  # half untraced, for the tracing overhead; half traced
            commands, _ = set_up(caller, args, workdir)
            samples = passes(caller, commands, time.perf_counter() + seconds / 2)
        else:
            # Each set-up is followed by an equal share of the run, so that
            # the set-up times sample the machine's drifting speed across it.
            start, samples, setups, commands = time.perf_counter(), [], [], None
            for k in range(1 if args.smoke else SETUP_REPEATS):
                built, setup = set_up(caller, args, workdir)
                commands = commands or built  # every set-up builds the same pass; keep one alive
                setups.append(setup)
                samples += passes(caller, commands, start + seconds * (k + 1) / SETUP_REPEATS)
        print(f"fibcat benchmark: workload {args.workload}, seed {args.seed}, one closed-loop caller, "
              f"{len(samples) // len(commands)} passes of {len(commands)} commands ({len(samples)} samples)"
              f"{', untraced' if args.trace else ''}")
        if args.trace:
            metrics = traced_metrics(caller, commands, samples, seconds / 2, args)
        else:
            metrics = end_to_end(samples, import_s + statistics.median(setups))
            print_kinds(samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            workdir.parent.rmdir()
    for name, (value, unit) in metrics.items():
        print(f"  {name:42} {value:14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':42} {caller.failed / caller.attempted:14.6g} ratio "
              f"({caller.failed} of {caller.attempted} attempted commands)")
        for name, (value, unit) in in_seconds(samples).items():
            print(f"  {name:42} {value:14.6g} {unit}  (not gated)")
    return {
        "correct": caller.failed == 0,
        "attempted": caller.attempted,
        "failed": caller.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args):
    """Each workload in a process of its own, so peak_rss_mb is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {workload} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at tiny sizes, no timing")
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
