"""Quick self-check of the benchmark, every workload at tiny size.

    python3 perfbench/selfcheck.py

For each workload in BENCHMARK.json and both trace settings it asserts
that the run exits 0, emits exactly the metric names declared there,
fails no operation (failed_frac 0) and flags the perturbed output of the
negative control. It also checks that the benchmark refuses to report
from a directory holding only BENCHMARK.json and the benchmark files.
Takes well under a minute.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = run(ROOT, workload, trace)
        where = f"{workload} --trace {trace}"
        if out.returncode != 0:
            raise SystemExit(f"{where}: exit code {out.returncode}\n{out.stderr}")
        info, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
        declared = {m["name"] for m in SPEC[group]}
        if set(result["metrics"]) != declared:
            raise SystemExit(f"{where}: metrics differ from BENCHMARK.json: "
                             f"{sorted(set(result['metrics']) ^ declared)}")
        if result["failed"] or info["failed_frac"] != 0 or not result["correct"]:
            raise SystemExit(f"{where}: failures\n{out.stderr}")
        if not info["negative_control_flagged"]:
            raise SystemExit(f"{where}: negative control not flagged")
        print(f"ok  {where}: {result['attempted']} operations, "
              f"{len(declared)} metrics")


def check_refuses_without_program():
    bare = ROOT / ".perfbench_selfcheck"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, SPEC["workloads"][0]["name"], 0)
        if out.returncode == 0 or out.stdout.strip():
            raise SystemExit("benchmark reported without the program's sources")
        print("ok  refuses to run without src/")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    for w in SPEC["workloads"]:
        check_workload(w["name"])
    check_refuses_without_program()


if __name__ == "__main__":
    main()
