#!/usr/bin/env python3
"""Wire-level serving benchmark for `abcs serve`.

Builds the daemon and the load-generator harness from this checkout,
generates the registry datasets, and runs one workload against a daemon
spawned as a child process, over loopback TCP:

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 40 --trace 0

`--workload all` runs every workload in turn. `--trace 1` reports the
per-layer metrics of an in-process replay instead of the end-to-end ones.
The last line of standard output is the result, one JSON object with the
keys correct, attempted, failed and metrics. Build products, generated
data, per-run result files and span traces go under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_build"
WORKLOADS = ["hot_repeat", "cold_mix", "cold_raw", "live_churn"]
# The registry dataset each workload serves; --tiny swaps in BS for all.
DATASET_OF = {"hot_repeat": "DTI", "cold_mix": "DTI", "cold_raw": "DTI",
              "live_churn": "PA"}
TINY_DATASETS = ["BS"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, what):
    """Runs a build or data step; its output goes to stderr."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise SystemExit(f"perfbench: {what} failed ({proc.returncode})")


def build():
    """Configures once and builds the daemon and the harness (Release)."""
    build_dir = WORK / "cmake"
    gen = []
    if not (build_dir / "CMakeCache.txt").exists() and shutil.which("ninja"):
        gen = ["-G", "Ninja"]
    run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", *gen], "configure")
    run_quiet(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1)],
              "build")
    return build_dir / "abcs" / "tools" / "abcs", build_dir / "perfbench_harness"


def prepare_data(abcs, datasets):
    """Writes each dataset's edge list, raw bundle and max bundle with the
    abcs under test. Every run writes them afresh (a few seconds for DTI):
    .bench_build/ outlives a checkout of another commit, and a bundle
    written by another build would hide this build's codec and layout."""
    data = WORK / "data"
    data.mkdir(parents=True, exist_ok=True)
    for name in datasets:
        base = data / name.lower()
        steps = [
            (".txt", [str(abcs), "gen", name]),
            (".raw", [str(abcs), "index", str(base) + ".txt"]),
            (".max", [str(abcs), "index", str(base) + ".txt", "--compress=max"]),
        ]
        for suffix, cmd in steps:
            target = Path(str(base) + suffix)
            tmp = Path(str(target) + ".tmp")
            cmd = cmd[:3] + [str(tmp)] + cmd[3:]
            run_quiet(cmd, f"{name}{suffix}")
            tmp.rename(target)
    return data


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             env=env)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for sub in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def kill_group(proc):
    """SIGKILLs the process group and waits until every member is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(harness, abcs, data, args, workload):
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    cmd = [str(harness), "run", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--abcs", str(abcs), "--data", str(data), "--out", str(out),
           "--commit", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    # Own process group, so a timeout also takes down the daemon the
    # harness spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        kill_group(proc)
        raise SystemExit(f"perfbench: {workload} timed out") from exc
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench: {workload} printed no result "
                         f"(exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1]), lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="BS dataset, quarter rates (self-test scale)")
    args = parser.parse_args()

    abcs, harness = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    datasets = TINY_DATASETS if args.tiny else sorted(
        {DATASET_OF[w] for w in workloads})
    data = prepare_data(abcs, datasets)
    if args.workload != "all":
        code, _, line = run_workload(harness, abcs, data, args, args.workload)
        print(line)
        return code

    worst = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, result, line = run_workload(harness, abcs, data, args, workload)
        print(f"# {workload} {line}")
        worst = max(worst, code)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
