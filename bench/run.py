"""Benchmark of ``lzero``: classify, the skein engine and move-scrambled CLI runs.

Usage, from the root of a source tree (no install needed)::

    python3 bench/run.py --workload reps --seed 1 --seconds 30 --trace 0

The seed makes a fixed list of inputs (``inputs.py``); ``--seconds``
sets its length through ``BLOCK_SECONDS``, never a time limit.  A run
does ``ROUNDS`` rounds of the whole list, each in a fresh interpreter
(``worker.py``) from an empty Conway memo, and takes for every
operation the median of its round times; the end-to-end metrics are
read from those medians, so a burst of machine noise in one round does
not move them.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median
over the rounds and one more set-up before each round and after the
last.  ``--trace 1`` runs one traced and one untraced round in turn,
operation by operation, times a few bare imports of ``lzero.cli``, and
reports the per-layer metrics with the tracing overhead.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("reps", "skein", "scrambled")
ROUNDS = 5
# Seconds one block of inputs (see inputs.py) takes per round on a
# 2-core x86 machine at the commit that added the benchmark, and the
# fewest blocks that give the 100 operations op_ms_p90 needs.
BLOCK_SECONDS = {"reps": 5.0, "skein": 1.2, "scrambled": 3.7}
MIN_BLOCKS = {"reps": 1, "skein": 3, "scrambled": 1}
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(workload: str, path: str, *flags: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--inputs", path, *flags]


def run_worker(workload: str, path: str, *flags: str) -> dict:
    cmd = worker_cmd(workload, path, *flags)
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["first_op"] - started
    return result


def run_lockstep(workload: str, path: str, ops: int) -> list[dict]:
    """A traced and an untraced round side by side, each operation run
    first in one and then in the other, so that the machine's drift in
    speed falls on both alike and their time ratio is the overhead."""
    procs = [subprocess.Popen(worker_cmd(workload, path, "--lockstep", *flags),
                              cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
             for flags in (("--trace",), ())]
    try:
        for k in range(ops):
            for proc in procs[::1 if k % 2 else -1]:
                proc.stdin.write("\n")
                proc.stdin.flush()
                if not proc.stdout.readline():
                    raise BenchError(f"{workload} worker stopped at operation {k}")
        results = []
        for proc in procs:
            # Read through the same buffered file as readline above: it
            # may already hold the result line.
            proc.stdin.close()
            out = proc.stdout.read()
            if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or not out.strip():
                raise BenchError(f"{workload} worker exited with status {proc.returncode}")
            results.append(json.loads(out.strip().splitlines()[-1]))
        return results
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def import_ms() -> float:
    """Median wall time of ``import lzero.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import lzero.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[dict], setups: list[float]) -> dict:
    times = [statistics.median(ts) for ts in zip(*(r["times"] for r in rounds))]
    if len(times) < 100:
        raise BenchError(f"only {len(times)} operations; op_ms_p90 needs 100")
    return {
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "op_ms_p50": metric(statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": metric(statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def per_layer(traced: dict, plain: dict) -> dict:
    out = {}
    for name, value in traced["layers"].items():
        if name.endswith("_calls") or name == "moves.sites_found":
            out[name] = metric(value, "count")
        else:
            out[name] = metric(value, "ms")
    out["cli.import_ms"] = metric(import_ms(), "ms")
    overhead = sum(traced["times"]) / sum(plain["times"]) - 1
    out["trace.overhead_pct"] = metric(overhead * 100, "%")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "lzero", "__init__.py")):
        print(f"error: no lzero package under {SRC}", file=sys.stderr)
        return 2
    broken = checks.selftest()
    if broken:
        print("error: answer checks failed their self-test: " + "; ".join(broken),
              file=sys.stderr)
        return 1

    blocks = max(MIN_BLOCKS[args.workload],
                 round(args.seconds / (ROUNDS * BLOCK_SECONDS[args.workload])))
    work_dir = os.path.join(ROOT, ".lzbench")
    os.makedirs(work_dir, exist_ok=True)
    path = os.path.join(work_dir, f"{args.workload}-{args.seed}-{os.getpid()}.json")
    try:
        items = inputs.make(args.workload, args.seed, blocks)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(items, fh)
        if args.trace:
            rounds = run_lockstep(args.workload, path, len(items))
            metrics = per_layer(*rounds)
        else:
            rounds, setups = [], []
            for _ in range(ROUNDS):
                setups.append(run_worker(args.workload, path, "--setup-only")["setup_s"])
                rounds.append(run_worker(args.workload, path))
            setups.append(run_worker(args.workload, path, "--setup-only")["setup_s"])
            setups += [r["setup_s"] for r in rounds]
            metrics = end_to_end(rounds, setups)
    except (BenchError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in (path, path[:-len(".json")] + ".lz"):
            if os.path.exists(leftover):
                os.remove(leftover)

    print(json.dumps({
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
