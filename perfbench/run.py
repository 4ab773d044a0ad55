#!/usr/bin/env python3
"""End-to-end benchmark of the experiment harness.

Usage (from the repository root):

    python3 perfbench/run.py --workload figures|sliced16|sweeps_fast \
        [--seed N] [--seconds S] [--trace 0|1]

Builds the `icp-perfbench` package (perfbench/Cargo.toml; target directory
from CARGO_TARGET_DIR, default `.bench_build`), then for `--seconds`
seconds starts one fresh process per cold pass of the workload, with a
core budget of the host's usable cores. The last line of stdout is one
JSON object: `correct`, `attempted`, `failed` (cells) and `metrics` --
the end-to-end metrics with `--trace 0`, the per-layer metrics of a
separate traced run with `--trace 1`. Earlier lines give every metric
with its quartiles and sample count. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The `repro` seed: the one seed whose digests are pinned (pinned.json).
DEFAULT_SEED = 0x1C92010

WORKLOADS = ("figures", "sliced16", "sweeps_fast")

# A run ends, build excluded, within this many seconds of the start of
# measurement beyond `--seconds`; a pass still running then is killed
# and its cells count as failed.
OVERRUN_LIMIT_S = 110

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_mips", "MIPS"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("workloads.gen_s", "s"),
    ("workloads.gen_maccess_per_s", "M/s"),
    ("trace_cache.hits", "count"),
    ("trace_cache.generations", "count"),
    ("trace_cache.wait_s", "s"),
    ("trace_cache.packed_mb", "MB"),
    ("cmp_sim.sim_s", "s"),
    ("cmp_sim.sim_maccess_per_s", "M/s"),
    ("cmp_sim.events", "count"),
    ("cmp_sim.intervals", "count"),
    ("slice.demux_s", "s"),
    ("slice.demuxed_accesses", "count"),
    ("umon.export_s", "s"),
    ("policy.decide_s", "s"),
    ("policy.decisions", "count"),
    ("policy.repartitions", "count"),
    ("policy.us_per_decision", "us"),
    ("result_cache.sims", "count"),
    ("result_cache.hits", "count"),
    ("result_cache.disk_hits", "count"),
    ("result_cache.read_s", "s"),
    ("result_cache.disk_kb", "kB"),
    ("result_cache.io_s", "s"),
    ("sched.jobs", "count"),
    ("sched.wait_s", "s"),
    ("sched.cpu_util", "ratio"),
    ("sched.token_util", "ratio"),
    ("budget.peak_threads", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.busy_s", "s"),
    ("unattributed_s", "s"),
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    """Builds the benchmark package and returns the binary's path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("repository sources (crates/) not found next to perfbench/")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if r.returncode != 0:
        fail(f"build failed with exit code {r.returncode}")
    binary = os.path.join(target, "release", "icp-perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no {binary}")
    return binary


class Runner:
    """Starts one pass per fresh process and collects its report."""

    def __init__(self, binary, workload, seed, budget, scratch, deadline):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.budget = budget
        self.scratch = scratch
        self.deadline = deadline

    def run(self, mode):
        """Returns (report or None, exit code, cpu seconds, peak RSS MB,
        host seconds, stderr tail)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        err_path = os.path.join(self.scratch, "stderr.txt")
        with open(err_path, "w+") as err:
            start = time.monotonic()
            cmd = [
                self.binary,
                "--workload", self.workload,
                "--mode", mode,
                "--seed", str(self.seed),
                "--budget", str(self.budget),
                "--scratch", self.scratch,
                "--spawn-ns", str(time.time_ns()),
            ]
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read().decode("utf-8", "replace")
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                proc.stdout.close()
            host_s = time.monotonic() - start
            err.seek(0)
            tail = err.read()[-2000:]
        report = None
        lines = out.strip().splitlines()
        if proc.returncode == 0 and lines:
            try:
                report = json.loads(lines[-1])
            except ValueError:
                report = None
        cpu_s = usage.ru_utime + usage.ru_stime
        return report, proc.returncode, cpu_s, usage.ru_maxrss / 1024.0, host_s, tail


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def parse_seed(text):
    """A decimal seed, or a 0x-prefixed hexadecimal one."""
    text = text.strip()
    return int(text, 16) if text.lower().startswith("0x") else int(text, 10)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into an exit that runs the cleanup below, which stops
    # a pass still in flight and removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seed < 0 or args.seed >= 2**64:
        fail("--seed must fit in 64 unsigned bits")

    binary = build()
    with open(os.path.join(BENCH_DIR, "pinned.json")) as f:
        pinned = json.load(f)
    budget = len(os.sched_getaffinity(0))
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        result = measure(args, binary, budget, scratch, pinned)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    print(json.dumps(result))


def measure(args, binary, budget, scratch, pinned):
    start = time.monotonic()
    runner = Runner(binary, args.workload, args.seed, budget, scratch,
                    start + args.seconds + OVERRUN_LIMIT_S)
    is_pinned = args.seed == int(pinned["seed"], 0)
    expect = pinned["workloads"][args.workload]

    # Untraced passes give the end-to-end metrics; with --trace 1 they
    # alternate with traced passes, which give the per-layer metrics.
    modes = ["untraced", "traced"] if args.trace else ["untraced"]
    passes = {m: [] for m in modes}
    durations = []
    attempted = failed = 0
    errors = []
    reference = None  # the first clean pass (unpinned seeds)
    k = 0
    # Whole rounds (one pass of each mode) until the next would end after
    # --seconds; a pass that fails still ends its round. Past the deadline
    # no pass starts, so a mode that never succeeds cannot hold the run.
    while time.monotonic() < runner.deadline:
        mode = modes[k % len(modes)]
        elapsed = time.monotonic() - start
        estimate = statistics.median(durations) if durations else 0.0
        if k > 0 and k % len(modes) == 0 and elapsed + estimate > args.seconds:
            break
        k += 1
        report, code, cpu_s, rss_mb, host_s, tail = runner.run(mode)
        durations.append(host_s)
        expected_cells = expect["cells"]
        if report is None:
            attempted += expected_cells
            failed += expected_cells
            errors.append(f"{mode} pass exited with code {code}: {tail.strip()[-500:]}")
            continue
        cells = report["cells"]
        attempted += cells
        bad = check_pass(report, expect, is_pinned, budget, reference, errors)
        if reference is None and bad == 0:
            reference = report
        failed += bad
        report["cpu_s"] = cpu_s
        report["peak_rss_mb"] = rss_mb
        passes[mode].append(report)

    for e in errors[:20]:
        log(f"perfbench: {e}")
    for mode in modes:
        if not passes[mode]:
            log(f"perfbench: no {mode} pass completed")
    if not all(passes.values()):
        # A mode with no completed pass has nothing to measure: report
        # the failure rather than metrics.
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "metrics": {}}
    correct = failed == 0 and not errors
    if args.trace:
        metrics, rows = per_layer(passes, budget)
    else:
        metrics, rows = end_to_end(passes["untraced"])
    print(f"workload {args.workload}  seed {args.seed:#x}  budget {budget}  "
          f"passes {', '.join(f'{m} {len(p)}' for m, p in passes.items())}")
    for name, (q1, q2, q3, n, unit) in rows.items():
        print(f"  {name:32s} {q2:14.6g} {unit:6s} (q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    first = passes["untraced"][0]
    print(f"  {'failed_frac':32s} {failed / max(attempted, 1):14.6g} ratio  "
          f"({failed} of {attempted} cells)")
    if "paper_gap_pp" in first:
        print(f"  {'paper_gap_pp':32s} {first['paper_gap_pp']:14.6g} pp")
    for axis, s in first.get("axis_s", {}).items():
        print(f"  {'sweeps.axis_s.' + axis:32s} {s:14.6g} s")
    print(f"  digest {first['digest']} ({'pinned seed' if is_pinned else 'unpinned seed'})")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def check_pass(report, expect, is_pinned, budget, reference, errors):
    """Returns the number of failed cells of one pass; records why."""
    cells = report["cells"]
    problems = list(report.get("errors", [])) + list(report.get("trace_errors", []))
    if report["peak_threads"] > budget:
        problems.append(f"peak threads {report['peak_threads']} exceed budget {budget}")
    if report["os_threads"] > budget:
        problems.append(f"{report['os_threads']} live threads exceed budget {budget}")
    if problems:
        errors.extend(f"{report['mode']} pass: {p}" for p in problems)
        return cells
    if is_pinned:
        if report["digest"] != expect["digest"] or cells != expect["cells"]:
            errors.append(f"{report['mode']} pass: digest {report['digest']} "
                          f"!= pinned {expect['digest']}")
            want = expect.get("cell_digests")
            got = report.get("cell_digests")
            if want and got and len(want) == len(got):
                return sum(a != b for a, b in zip(want, got))
            return cells
        if "suite_digest" in expect and report.get("suite_digest") != expect["suite_digest"]:
            errors.append(f"{report['mode']} pass: suite digest {report.get('suite_digest')} "
                          f"!= pinned {expect['suite_digest']}")
            return cells
        return 0
    # Unpinned seed: every pass, traced or not, must reproduce the first.
    if reference is None:
        return 0
    if report["digest"] == reference["digest"] and cells == reference["cells"]:
        return 0
    errors.append(f"{report['mode']} pass: digest {report['digest']} differs from "
                  f"the first pass's {reference['digest']}")
    want, got = reference.get("cell_digests"), report.get("cell_digests")
    if want and got and len(want) == len(got):
        return sum(a != b for a, b in zip(want, got))
    return cells


def end_to_end(untraced):
    samples = {
        "wall_s": [p["wall_s"] for p in untraced],
        "cpu_s": [p["cpu_s"] for p in untraced],
        "sim_mips": [p["sim_instructions"] / p["wall_s"] / 1e6 for p in untraced],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "setup_s": [p["setup_s"] for p in untraced],
    }
    return summarize(END_TO_END, samples)


def per_layer(passes, budget):
    traced, untraced = passes["traced"], passes["untraced"]
    samples = {name: [p["layers"][name] for p in traced]
               for name, _ in PER_LAYER if name in traced[0]["layers"]}
    samples["sched.cpu_util"] = [p["cpu_s"] / (p["wall_s"] * budget) for p in untraced]
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    samples["trace.overhead_pct"] = [
        (p["wall_s"] / untraced_wall - 1.0) * 100.0 for p in traced]
    return summarize(PER_LAYER, samples)


def summarize(spec, samples):
    metrics, rows = {}, {}
    for name, unit in spec:
        values = samples[name]
        q1, q2, q3 = quartiles(values)
        if unit == "count":
            q2 = int(round(q2))
        metrics[name] = {"value": q2, "unit": unit}
        rows[name] = (q1, q2, q3, len(values), unit)
    return metrics, rows


if __name__ == "__main__":
    main()
