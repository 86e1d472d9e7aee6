"""Self-test of the benchmark at tiny problem sizes (about two minutes).

    python3 perfbench/selftest.py

Checks, for every workload:
  - with --trace 0 and --trace 1, every metric BENCHMARK.json names is
    emitted with its unit, and every op passes its output checks;
  - traced self times sum to no more than the traced op time, pass by
    pass;
  - with every expected value shifted by twice its tolerance
    (--perturb), every op fails: pass_frac drops to 0, so the checks
    are live.
And that in a directory holding only BENCHMARK.json and the benchmark,
the benchmark exits non-zero without printing a result.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / HERE.name / "run.py"),
                           "--seed", str(SEED), "--seconds", "1",
                           "--scale", "tiny", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok    " if cond else "FAIL  ") + what, flush=True)
        if not cond:
            problems.append(what)

    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            res = result(bench("--workload", w, "--trace", str(trace)))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == wanted[trace],
                   f"{w} trace {trace}: every metric with its unit")
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 2,
                   f"{w} trace {trace}: all {res['attempted']} ops pass")
        record = json.loads((ROOT / ".perfbench_work" / f"{w}-{SEED}-trace1"
                             / "record.json").read_text())
        expect(all(s <= op for s, op in record["self_vs_op"]),
               f"{w}: traced self times sum to at most op_s")
        res = result(bench("--workload", w, "--trace", "0", "--perturb"))
        expect(not res["correct"]
               and res["metrics"]["pass_frac"]["value"] == 0.0,
               f"{w}: wrong expected values fail every op")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "verify", "--trace", "0", cwd=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program: non-zero exit and no result")
    shutil.rmtree(bare)

    print("self-test " + ("passed" if not problems else
                          f"FAILED: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
