#!/usr/bin/env python3
"""Whole-spine benchmark: seeded synthetic spines through `spinekit run`.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload lumbar_r25 --seed 1 --seconds 36 --trace 0

Set-up generates the workload's spine from the seed and writes it to disk
(`setup_s`, the median of several set-ups).  Each measured run is then one
fresh `spinekit run` process on that spine, started only after the previous
one exited (a closed loop with one client, no other load), exactly as a user
runs one spine: `spine_s` is its wall time from spawn to exit and
`peak_rss_mb` its peak resident set (one process, from `os.wait4`).  Every
report is checked against the closed-form truth of the spine; an operation
(one vertebra or one consecutive pair) fails when its record is missing,
carries a failure warning or disagrees with the truth, and all operations of
a process fail when it exits nonzero or its report.json differs in any byte
from the first one.

The speed of a shared machine drifts by tens of percent within minutes, so
every set-up and every spine process is bracketed by `Probe` runs, a fixed
mix of interpreter, memory-copy and qhull work that uses no spinekit code.
Each timing behind `spine_s` and `setup_s` is multiplied by the reference
probe time over the mean of the two probes around it, which gives seconds at
the reference machine speed.  The raw medians are printed above the result.

With `--trace 1` the runs alternate between plain and traced processes
(`trace_child.py`) and the per-layer metrics of `layers.py` are printed,
plus `trace.overhead_s`, the traced minus the plain median `spine_s`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_SAMPLES = 2
# time of one `Probe` call on the reference machine (2-vCPU VM)
PROBE_REF_S = 0.9
CLI = "import sys; from spinekit.report_cli import main; sys.exit(main())"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Launcher:
    """The `launch.py` process, which starts every spine process so that
    their peak RSS is their own (see `launch.py`)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, cmd: list[str], env: dict, log: Path) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, "env": env, "log": str(log)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Child:
    """One `spinekit run` process: its wall time, peak RSS and report."""

    def __init__(self, launcher: Launcher, desc: Path, out: Path, alpha: str | None,
                 spans: Path | None):
        self.out = out
        self.spans = spans
        shutil.rmtree(out, ignore_errors=True)
        cli_args = ["run", "--input", str(desc), "--out", str(out)]
        if alpha is not None:
            cli_args += ["--alpha", alpha]
        if spans is None:
            cmd = [sys.executable, "-c", CLI, *cli_args]
        else:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans), *cli_args]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        log = out.with_suffix(".log")
        result = launcher.run(cmd, env, log)
        self.spine_s = result["wall_s"]
        self.exit_code = result["exit_code"]
        self.peak_rss_mb = result["peak_rss_kib"] / 1024.0
        self.log_tail = log.read_text(errors="replace").splitlines()[-5:]
        report = out / "report.json"
        self.report = report.read_bytes() if self.exit_code == 0 and report.exists() else None


class Probe:
    """Times a fixed mix of work that runs at the machine's current speed:
    a pure-Python loop, copies of a 64 MiB array and qhull Delaunay runs,
    each about a third of the total.  No spinekit code runs in it, so a
    change to the program cannot move it."""

    def __init__(self):
        import numpy as np
        from scipy.spatial import Delaunay

        self._copyto, self._delaunay = np.copyto, Delaunay
        self.points = np.random.default_rng(0).random((3500, 3))
        self.src = np.ones(8 << 20)
        self.dst = np.zeros_like(self.src)

    def __call__(self) -> float:
        start = time.monotonic()
        total = 0
        for i in range(6_000_000):
            total += i
        for _ in range(24):
            self._copyto(self.dst, self.src)
        for _ in range(4):
            self._delaunay(self.points)
        return time.monotonic() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, from the probes either side of it."""
    return seconds * PROBE_REF_S / ((before + after) / 2)


def run_children(launcher, desc, truth, workload, seconds, trace, workdir, probe,
                 before):
    """Spawn processes one at a time until the next would overrun `seconds`;
    `before` is the probe time just before the first one."""
    import spine

    children, ref, log = [], None, []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while True:
        traced = trace and len(children) % 2 == 1
        n = len(children)
        child = Child(launcher, desc, workdir / f"out{n}", workload.alpha,
                      workdir / f"spans{n}.json" if traced else None)
        after = probe()
        child.scaled_s = scaled(child.spine_s, before, after)
        before = after
        children.append(child)
        ops = truth.operations()
        attempted += ops
        if child.report is None:
            failed += ops
            log.append(f"child {n}: exit {child.exit_code}, all {ops} operations "
                       f"failed: {' | '.join(child.log_tail)}")
        elif ref is not None and child.report != ref:
            failed += ops
            log.append(f"child {n}: report.json differs from child 0; "
                       f"all {ops} operations failed")
        else:
            ref = ref or child.report
            verdicts = spine.check_report(json.loads(child.report), truth)
            bad = {op: p for op, p in verdicts.items() if p}
            failed += len(bad)
            log += [f"child {n}: {op} failed: {'; '.join(p)}" for op, p in bad.items()]
        shutil.rmtree(child.out, ignore_errors=True)
        print(f"child {n}{' traced' if traced else ''}: spine_s {child.scaled_s:.4f} s "
              f"(raw {child.spine_s:.4f} s, probe {after:.4f} s), peak_rss_mb {child.peak_rss_mb:.1f} MiB, exit {child.exit_code}")

        plain = [c.spine_s for c in children if c.spans is None]
        done = len(children) >= MIN_SAMPLES
        if done and time.monotonic() + statistics.median(plain) > deadline:
            return children, ref, attempted, failed, log


def self_check(ref: bytes, truth) -> tuple[bool, str]:
    """One corrupted value must fail its operation and change no other verdict."""
    import spine

    def failing(report):
        return {op for op, problems in spine.check_report(report, truth).items() if problems}

    report, op = spine.corrupted_copy(ref)
    before, after = failing(json.loads(ref)), failing(report)
    ok = after == before | {op}
    return ok, (f"self-check: {op} roi.hu_mean + 1 -> failed operations "
                f"{sorted(after)}: {'ok' if ok else 'NOT COUNTED AS A FAILURE'}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinekit" / "__init__.py").is_file():
        print(f"error: no spinekit sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spine
    import spinekit

    if Path(spinekit.__file__).resolve().parent != (SRC / "spinekit").resolve():
        print(f"error: imported spinekit from {spinekit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in spine.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(spine.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = spine.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    launcher = Launcher()
    try:
        return measure(args, workload, workdir, launcher)
    except BaseException:
        launcher.proc.terminate()
        raise
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def measure(args, workload, workdir: Path, launcher: Launcher) -> int:
    import layers
    import spine

    probe = Probe()
    setup_times, digests, marks = [], set(), [probe()]
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        desc, truth = spine.write_spine(workload, args.seed, workdir / "input")
        setup_times.append(time.monotonic() - start)
        os.sync()   # no write-back of the input during the probes and processes
        marks.append(probe())
        digests.add(hashlib.sha256(
            b"".join(p.read_bytes() for p in sorted(desc.parent.iterdir()))).hexdigest())
    blas = {k: os.environ.get(k, "unset") for k in BLAS_ENV}
    print(f"workload {args.workload} seed {args.seed}: {workload.levels} levels, "
          f"radii {[round(v.compound.body_radius, 3) for v in truth.levels.values()]} mm, "
          f"HU {[v.hu for v in truth.levels.values()]}, background {truth.background_hu}, "
          f"spacing {workload.spacing}, alpha {workload.alpha or 'default'}")
    print(f"BLAS threads left at their default (nproc {os.cpu_count()}, {blas})")

    children, ref, attempted, failed, log = run_children(
        launcher, desc, truth, workload, args.seconds, args.trace, workdir, probe,
        marks[-1])
    for line in log:
        print(line)
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        print("set-up wrote different bytes for the same seed")
    if ref is not None:
        ok, line = self_check(ref, truth)
        print(line)
        correct = correct and ok
    print(f"fail_rate {failed}/{attempted} = {failed / attempted:.4f} ratio "
          f"(operations: {truth.operations()} per process)")

    plain = [c for c in children if c.spans is None]
    spine_s = statistics.median(c.scaled_s for c in plain)
    if not args.trace:
        setup_s = statistics.median(
            scaled(t, a, b) for t, a, b in zip(setup_times, marks, marks[1:]))
        print(f"raw medians: spine_s {statistics.median(c.spine_s for c in plain):.4f} s "
              f"over {len(plain)} processes, setup_s {statistics.median(setup_times):.4f} s "
              f"over {len(setup_times)}; reference probe {PROBE_REF_S} s")
        metrics = {
            "spine_s": metric(spine_s, "s"),
            "peak_rss_mb": metric(statistics.median(c.peak_rss_mb for c in plain), "MiB"),
            "setup_s": metric(setup_s, "s"),
        }
        print("spine_s and setup_s below are at the reference probe speed; no "
              "percentile above the median (fewer than ten samples beyond any)")
    else:
        traced = [c for c in children if c.spans is not None and c.spans.exists()]
        if not traced:
            print("error: no traced process wrote its spans", file=sys.stderr)
            return 1
        per_child = []
        for c in traced:
            values, absent = layers.layer_metrics(json.loads(c.spans.read_text()))
            per_child.append(values)
        for name, reason in sorted(absent.items()):
            print(f"absent: {name} ({reason})")
        metrics = {name: metric(statistics.median(v[name] for v in per_child), unit)
                   for name, (unit, _, _) in layers.METRICS.items()}
        overhead = statistics.median(c.scaled_s for c in traced) - spine_s
        metrics["trace.overhead_s"] = metric(overhead, "s")
        print(f"per-layer values: median of {len(traced)} traced processes; "
              f"trace.overhead_s against {len(plain)} plain ones")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
