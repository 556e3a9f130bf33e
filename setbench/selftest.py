#!/usr/bin/env python3
"""Self-test of the Set-B benchmark.

    python3 setbench/selftest.py

Runs every workload in BENCHMARK.json briefly, untraced and traced, and
checks that each run prints every end-to-end (untraced) or per-layer
(traced) metric named there, with its unit, and reports ok_frac == 1.
Then injects a fault (--corrupt 1 perturbs one output ciphertext) and
checks that the oracle catches it: ok_frac below 1 and correct false.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, trace)
            got = res["metrics"]
            for m in spec[key]:
                check(m["name"] in got and got[m["name"]]["unit"] == m["unit"],
                      f"{name} trace={trace}: {m['name']} [{m['unit']}]")
            check(set(got) == {m["name"] for m in spec[key]},
                  f"{name} trace={trace}: no metrics beyond BENCHMARK.json")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{name} trace={trace}: every output matched the oracle")
            if trace == 0:
                check(got["ok_frac"]["value"] == 1.0, f"{name}: ok_frac == 1")

    res = run(spec["workloads"][0]["name"], 0, ("--corrupt", "1"))
    check(res["metrics"]["ok_frac"]["value"] < 1.0 and not res["correct"]
          and res["failed"] >= 1,
          "a corrupted output drives ok_frac below 1")
    print("selftest passed")


if __name__ == "__main__":
    main()
