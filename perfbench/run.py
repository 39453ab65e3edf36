"""End-to-end benchmark of the fluorospec CLI, with an optional traced run.

    python3 perfbench/run.py --workload {spectral,counting,sweep} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run from the root of a source checkout: the program is imported from
``src/``. The workload's seeded run configurations are written to
``.perfbench_work/`` and every CLI task is invoked in-process through
``fluorospec.cli.main`` with one thread, the way a user runs it. Each
output CSV is verified against ``reference.py``; a task invocation fails
on a nonzero exit code, an exception or a failed check. Passes over the
workload's task list repeat for ``--seconds``; no warm-up pass is needed,
since only the fastest run of each invocation is kept.

``--trace 0`` reports the end-to-end metrics: setup_s (a fresh interpreter
imports fluorospec and parses the configs; one probe after each pass),
wall_s (one pass over the task list) and peak_rss_mb. ``--trace 1``
spends half the time on untraced passes (per-task times) and half on
passes with the layer wrappers of ``layers.py`` installed (calls, self
time, dim^3 counts, the tracing overhead and the share of wall time
outside every layer).
``--tiny`` shrinks every workload for the self-check.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment and the negative control.
"""
import os

# One BLAS thread: with the default two on a two-CPU machine the timings
# measure the scheduler more than the program. Set before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TASKS = ("steady", "spectrum", "c1", "c2", "g2", "counting",
         "mandel-sweep", "lineshape-sweep")

# Timed from the parent: interpreter start, imports and config parsing.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from fluorospec import cli
for path in sys.argv[2:]:
    with open(path) as fh:
        cli.parse_config(fh.read())
"""


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "git_sha": git_sha()}


def setup_seconds(config_paths) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC),
                    *map(str, config_paths)], check=True, cwd=ROOT)
    return time.perf_counter() - t0


class Bench:
    def __init__(self, invocations, checkers, cli):
        self.invs = invocations
        self.checkers = checkers
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.last_output = None

    def _csv(self, inv) -> Path:
        return WORK / f"{inv.name}_{inv.task.replace('-', '_')}.csv"

    def one_pass(self, tracer=None) -> list:
        """Run every invocation once, then verify the outputs. Returns one
        (seconds, trace) pair per invocation, where trace is the tracer's
        (stats, top_s) for that invocation when a tracer is active."""
        runs, codes = [], []
        for inv in self.invs:
            argv = [inv.task, "--config", str(WORK / f"{inv.name}.json"),
                    "--out", str(WORK / inv.name), "--threads", "1"]
            if tracer:
                tracer.reset()
            t0 = time.perf_counter()
            try:
                codes.append(self.cli.main(argv))
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                codes.append(None)
            runs.append((time.perf_counter() - t0,
                         tracer and (tracer.stats, tracer.top_s)))
        for inv, code in zip(self.invs, codes):
            self.attempted += 1
            problems = [f"exit code {code}"] if code != 0 else []
            if not problems:
                try:
                    text = self._csv(inv).read_text()
                except OSError as exc:
                    problems = [f"no output: {exc}"]
                else:
                    problems = self.checkers[inv.name](text)
                    self.last_output = (inv, text)
            self._csv(inv).unlink(missing_ok=True)
            if problems:
                self.failed += 1
                print(f"FAILED {inv.name}: {'; '.join(problems)}", file=sys.stderr)
        return runs

    def passes(self, seconds: float, between=None, tracer=None) -> list:
        """Passes until ``seconds`` have elapsed (at least one); ``between``
        runs after each pass, inside the same time budget. Pass k runs pinned
        to the k-th allowed CPU in turn (see the note above ``fastest``)."""
        out = []
        cpus = sorted(os.sched_getaffinity(0))
        t_end = time.perf_counter() + seconds
        try:
            while not out or time.perf_counter() < t_end:
                os.sched_setaffinity(0, {cpus[len(out) % len(cpus)]})
                out.append(self.one_pass(tracer))
                if between:
                    between()
        finally:
            os.sched_setaffinity(0, cpus)
        return out

    def negative_control_flagged(self) -> bool:
        """A perturbed copy of a verified output must fail verification."""
        import checks

        if self.last_output is None:
            return False
        inv, text = self.last_output
        return bool(self.checkers[inv.name](checks.perturb(text)))


# Other tenants of the machine slow each CPU down in phases of seconds to
# minutes (by up to 1.7x), independently per CPU, and they can only add
# time. So passes rotate over the allowed CPUs, and every timing is built
# from the fastest run of each task invocation: a pass figure is the sum
# over the pass's invocations of their fastest runs. Set-up probes follow
# each pass, on its CPU, and the fastest one is reported.

def fastest(passes) -> list:
    """Per invocation, its fastest (seconds, trace) run over the passes."""
    return [min(runs, key=lambda r: r[0]) for runs in zip(*passes)]


def end_to_end(bench, config_paths, seconds) -> dict:
    setups = []
    best = fastest(bench.passes(
        seconds, between=lambda: setups.append(setup_seconds(config_paths))))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": (min(setups), "s"),
            "wall_s": (sum(sec for sec, _ in best), "s"),
            "peak_rss_mb": (rss, "MB")}


def per_layer(bench, seconds) -> dict:
    from layers import N3_LAYERS, Tracer, layer_names

    plain = fastest(bench.passes(seconds / 2))
    with Tracer() as tracer:
        traced = fastest(bench.passes(seconds / 2, tracer=tracer))
    stats = [trace[0] for _, trace in traced]
    metrics = {}
    for name in layer_names():
        metrics[f"{name}.calls"] = (sum(st[name].calls for st in stats), "count")
        metrics[f"{name}.self_s"] = (sum(st[name].self_s for st in stats), "s")
    for layer in N3_LAYERS:
        metrics[f"linalg.{layer}.n3"] = (sum(st[f"linalg.{layer}"].n3 for st in stats),
                                         "count")
    for task in TASKS:
        metrics[f"task.{task.replace('-', '_')}_s"] = (
            sum(sec for inv, (sec, _) in zip(bench.invs, plain) if inv.task == task), "s")
    plain_wall = sum(sec for sec, _ in plain)
    traced_wall = sum(sec for sec, _ in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["trace.unattributed_frac"] = (
        1.0 - sum(trace[1] for _, trace in traced) / traced_wall, "fraction")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (self-check only)")
    args = parser.parse_args(argv)

    if not (SRC / "fluorospec" / "__init__.py").is_file():
        print(f"perfbench: no fluorospec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import workloads
    from fluorospec import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"valid: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    invs = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        paths = [WORK / f"{inv.name}.json" for inv in invs]
        for inv, path in zip(invs, paths):
            path.write_text(json.dumps(inv.config()))
        bench = Bench(invs, {inv.name: checks.Checker(inv) for inv in invs}, cli)
        if args.trace:
            metrics = per_layer(bench, args.seconds)
        else:
            metrics = end_to_end(bench, paths, args.seconds)
        flagged = bench.negative_control_flagged()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed_frac = bench.failed / bench.attempted
    if args.trace:
        metrics["failed_frac"] = (failed_frac, "fraction")
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "passes": bench.attempted // len(invs),
                      "failed_frac": failed_frac,
                      "negative_control_flagged": flagged}))
    print(json.dumps({
        "correct": bench.failed == 0 and flagged,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
