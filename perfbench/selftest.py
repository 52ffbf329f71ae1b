#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Checks that one seed gives byte-identical request and update streams and
another seed different ones, and that a tiny run of every workload, with
--trace 0 and --trace 1, passes its correctness gate and prints exactly the
metrics BENCHMARK.json names, each with its unit:

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def stream_bytes(harness, data, workload, seed, out):
    subprocess.run([str(harness), "streams", "--workload", workload,
                    "--seed", str(seed), "--count", "500", "--data", str(data),
                    "--out", str(out), "--tiny"], check=True)
    return out.read_bytes()


def tiny_run(workload, trace):
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"),
                           "--workload", workload, "--seed", "3",
                           "--seconds", "3", "--trace", str(trace), "--tiny"],
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    abcs, harness = run.build()
    data = run.prepare_data(abcs, run.TINY_DATASETS)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    scratch = run.WORK / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    failures = []
    for workload in run.WORKLOADS:
        a = stream_bytes(harness, data, workload, 7, scratch / "a.bin")
        b = stream_bytes(harness, data, workload, 7, scratch / "b.bin")
        c = stream_bytes(harness, data, workload, 8, scratch / "c.bin")
        if a != b:
            failures.append(f"{workload}: one seed gave two different streams")
        if a == c:
            failures.append(f"{workload}: two seeds gave the same stream")
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            before = len(failures)
            code, result = tiny_run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None or set(result) != RESULT_KEYS:
                failures.append(f"{where}: exit {code}, result {result}")
                continue
            if not result["correct"] or result["failed"] != 0:
                failures.append(f"{where}: not correct ({result['failed']} failed)")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if want != got:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                units = sorted(k for k in want.keys() & got.keys()
                               if want[k] != got[k])
                failures.append(f"{where}: missing {missing} extra {extra} "
                                f"wrong units {units}")
            if len(failures) == before:
                print(f"ok {where}: {len(got)} metrics", flush=True)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
