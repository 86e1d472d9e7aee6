"""dipolemem benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (the program is imported from its `src`
directory; nothing is installed or built).  Inputs are generated from
the seed; see `workloads.py` for the ops, their seeded ranges and the
checks of every output against the paper's closed forms.

One client runs a closed loop: one op at a time, never more than one
child process, never `--workers`.

--trace 0 (end-to-end metrics):
  setup_s      median time for a fresh interpreter to `import dipolemem`
               and load the workload's scenario files (3 samples)
  cli_s        one pass with every op as its own `python -m dipolemem`
               process, first exec to last exit, artifacts on disk
  op_s         the same pass in this (warm) interpreter: load_scenario,
               the entry point and write_artifacts per op
  peak_rss_mb  largest peak RSS of a CLI process in a pass (wait4)
  pass_frac    ops whose outputs passed every check, over ops attempted
  err_to_tol   largest |error| / tolerance over all output checks
  One CLI pass and two warm passes run in turn for --seconds, each
  only while it still fits; timings are medians over passes, with the
  sample counts printed before the result.

--trace 1 (per-layer metrics): warm passes alternate untraced and
  traced (spans around the package's public calls, see `tracing.py`);
  reports calls, errors, busy and self time per wrapped function, work
  counts, the import-time split from `python -X importtime`, and the
  tracing overhead (traced minus untraced op_s).

Every artifact is hashed per op (result.json without its wall_time_s);
an op whose digests differ between passes fails.  The run record --
environment, inputs, samples, digests, spans -- is written to
`.perfbench_work/<workload>-<seed>-trace<t>/record.json`, and the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from tracing import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "cli_s": "s", "op_s": "s",
                    "peak_rss_mb": "MB", "pass_frac": "ratio",
                    "err_to_tol": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> dict:
    """Run one child to completion; its stdout and stderr go to `log`.

    Waits with wait4 for the child's own rusage; a child still running
    after CHILD_TIMEOUT_S is killed."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode,
            "maxrss_mb": usage.ru_maxrss / 1024.0}


def setup_sample(ops, cwd: Path) -> float:
    code = ("import sys, dipolemem\n"
            "for p in sys.argv[1:]:\n"
            "    dipolemem.load_scenario(p)\n")
    files = [str(op.config) for op in ops if op.config is not None]
    res = run_child([sys.executable, "-c", code, *files], cwd,
                    cwd / "setup.log")
    if res["code"] != 0:
        raise BenchError("set-up child failed: "
                         + (cwd / "setup.log").read_text()[-2000:])
    return res["wall_s"]


def import_times(cwd: Path) -> dict:
    """Cumulative import time of dipolemem and of scipy.interpolate,
    from `python -X importtime` (seconds)."""
    log = cwd / "importtime.log"
    res = run_child([sys.executable, "-X", "importtime", "-c",
                     "import dipolemem"], cwd, log)
    if res["code"] != 0:
        raise BenchError("import child failed: " + log.read_text()[-2000:])
    found = {}
    for line in log.read_text().splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] in ("dipolemem", "scipy.interpolate"):
            found[parts[2]] = int(parts[1]) * 1e-6
    return {"cli.import_s": found.get("dipolemem", float("nan")),
            "cli.import_scipy_interpolate_s":
                found.get("scipy.interpolate", 0.0)}


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def digest_dir(outdir: Path) -> tuple[dict, int, int]:
    """sha256 per artifact (result.json without wall_time_s), and the
    bytes and data rows of the CSV tables."""
    digests, nbytes, rows = {}, 0, 0
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "result.json":
            payload = json.loads(data)
            payload.pop("wall_time_s", None)
            data = json.dumps(payload, sort_keys=True).encode()
        elif path.suffix == ".csv":
            nbytes += len(data)
            rows += data.count(b"\n") - 1
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests, nbytes, rows


class Pass:
    """Outcome of one pass over a workload's ops."""

    def __init__(self, kind: str):
        self.kind = kind
        self.seconds = 0.0
        self.ops: list[dict] = []


def finish_op(op, outdir: Path, text: str, error: str, checker,
              shared: dict) -> dict:
    """Check and hash one op's output, then remove its directory."""
    rec = {"op": op.name, "error": error, "bytes": 0, "rows": 0}
    if not error:
        try:
            if op.command == "verify":
                op.check(checker, text, shared)
                rec["digests"] = {"stdout": hashlib.sha256(
                    text.encode()).hexdigest()}
            else:
                op.check(checker, outdir, shared)
                rec["digests"], rec["bytes"], rec["rows"] = digest_dir(outdir)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["error"] = f"reading output: {type(exc).__name__}: {exc}"
    shutil.rmtree(outdir, ignore_errors=True)
    rec["checks"] = checker.results
    rec["defects"] = checker.defects
    rec["ok"] = not rec["error"] and checker.ok
    rec["worst"] = checker.worst
    return rec


def cli_pass(ops, work: Path, perturb: bool) -> tuple[Pass, float]:
    """Every op as its own process, back to back; checks run after the
    last exit.  Returns the pass and its largest child RSS (MB)."""
    p = Pass("cli")
    runs = []
    t0 = time.perf_counter()
    for op in ops:
        outdir = work / "out" / op.name
        log = work / f"{op.name}.log"
        res = run_child([sys.executable, "-m", "dipolemem",
                         *op.cli_args(outdir)], work, log)
        runs.append((op, outdir, log, res))
    p.seconds = time.perf_counter() - t0
    shared: dict = {}
    for op, outdir, log, res in runs:
        text = log.read_text(errors="replace")
        error = "" if res["code"] == 0 else f"exit {res['code']}: {text[-500:]}"
        p.ops.append(finish_op(op, outdir, text, error,
                               workloads.Checker(perturb), shared))
    return p, max(r[3]["maxrss_mb"] for r in runs)


def warm_op(scn_mod, op, outdir: Path) -> str:
    """One op through the package's entry points; returns printed text."""
    if op.command == "verify":
        buf = io.StringIO()
        scn_mod.builtin_verify(buf)
        return buf.getvalue()
    scn = scn_mod.load_scenario(op.config)
    if op.command == "run":
        rec = scn_mod.run_scenario(scn)
    elif op.command == "design":
        rec = scn_mod.design_couplings(scn)
    else:
        rec = scn_mod.run_sweep(scn, op.axis,
                                [float(v) for v in op.values_text().split(",")])
    scn_mod.write_artifacts(rec, outdir)
    return ""


def warm_pass(scn_mod, ops, work: Path, perturb: bool,
              kind: str = "warm") -> Pass:
    p = Pass(kind)
    runs = []
    t0 = time.perf_counter()
    for op in ops:
        outdir = work / "out" / op.name
        try:
            text, error = warm_op(scn_mod, op, outdir), ""
        except Exception as exc:  # an op failure is counted, not fatal
            text, error = "", f"{type(exc).__name__}: {exc}"
        runs.append((op, outdir, text, error))
    p.seconds = time.perf_counter() - t0
    shared: dict = {}
    for op, outdir, text, error in runs:
        p.ops.append(finish_op(op, outdir, text, error,
                               workloads.Checker(perturb), shared))
    return p


def schedule(seconds: float, pattern: list) -> None:
    """Run the passes of `pattern` round and round for `seconds`.

    Every pass runs once; after that a pass runs only if its last
    duration still fits before the deadline, and the loop ends when no
    pass fits."""
    deadline = time.perf_counter() + seconds
    last = [None] * len(pattern)
    while True:
        ran = False
        for i, run_pass in enumerate(pattern):
            if last[i] is not None and \
                    time.perf_counter() + last[i] > deadline:
                continue
            t0 = time.perf_counter()
            run_pass()
            last[i] = time.perf_counter() - t0
            ran = True
        if not ran:
            return


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def tally(passes: list[Pass]) -> dict:
    """attempted/failed ops, worst check ratio, and digest agreement:
    an op whose artifacts differ from its first pass fails."""
    first: dict = {}
    attempted = failed = 0
    worst = 0.0
    for p in passes:
        for rec in p.ops:
            attempted += 1
            ref = first.setdefault(rec["op"], rec.get("digests"))
            if rec.get("digests") != ref:
                rec["ok"] = False
                rec["error"] = rec["error"] or "artifact digests differ"
            failed += not rec["ok"]
            worst = max(worst, rec["worst"])
    return {"attempted": attempted, "failed": failed, "worst": worst,
            "digests": first}


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def previous_digests(path: Path, scale: str):
    """Artifact digests of the last run recorded at `path`, if any."""
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return old.get("digests") if old.get("scale") == scale else None


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def import_package(ops):
    """Import dipolemem from SRC and compute the ops' check references."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("dipolemem")
    if Path(pkg.__file__).resolve().parent != (SRC / "dipolemem").resolve():
        raise BenchError(f"imported dipolemem from {pkg.__file__}, "
                         f"not from {SRC}")
    for op in ops:
        if op.prepare is not None:
            op.prepare()
    return importlib.import_module("dipolemem.scenarios")


def known_defects(passes: list[Pass]) -> dict:
    """(value, bound) of each known defect, from the first pass."""
    return {name: (value, bound) for rec in passes[0].ops
            for name, value, bound in rec["defects"]}


def end_to_end(ops, work: Path, seconds: float, perturb: bool, record):
    setup = [setup_sample(ops, work) for _ in range(SETUP_SAMPLES)]
    scn_mod = import_package(ops)
    passes: list[Pass] = []
    rss: list[float] = []

    def cli():
        p, peak = cli_pass(ops, work, perturb)
        passes.append(p)
        rss.append(peak)

    def warm():
        passes.append(warm_pass(scn_mod, ops, work, perturb))

    # warm passes are cheap: two per CLI pass
    schedule(seconds, [cli, warm, warm])
    t = tally(passes)
    samples = {"setup_s": setup,
               "cli_s": [p.seconds for p in passes if p.kind == "cli"],
               "op_s": [p.seconds for p in passes if p.kind == "warm"],
               "peak_rss_mb": rss}
    record.update(samples=samples)
    values = {k: median(v) for k, v in samples.items()}
    values.update(pass_frac=1.0 - t["failed"] / t["attempted"],
                  err_to_tol=t["worst"])
    counts = {k: len(v) for k, v in samples.items()}
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return metrics, counts, passes, t


def per_layer(ops, work: Path, seconds: float, perturb: bool, record):
    imports = [import_times(work) for _ in range(IMPORTTIME_SAMPLES)]
    scn_mod = import_package(ops)
    tracer = Tracer()
    passes: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []

    def untraced():
        passes.append(warm_pass(scn_mod, ops, work, perturb, "untraced"))

    def traced_pass():
        tracer.pass_id += 1
        tracer.install()
        try:
            p = warm_pass(scn_mod, ops, work, perturb, "traced")
        finally:
            tracer.uninstall()
        passes.append(p)
        summary = tracer.pass_summary(tracer.pass_id)
        # the op's artifacts are counted from the files it wrote
        summary["counts"]["scenarios.write_artifacts.bytes"] = sum(
            r["bytes"] for r in p.ops)
        summary["counts"]["scenarios.write_artifacts.rows"] = sum(
            r["rows"] for r in p.ops)
        traced.append((p, summary))

    schedule(seconds, [untraced, traced_pass])
    t = tally(passes)
    untraced_s = median([p.seconds for p in passes if p.kind == "untraced"])
    traced_s = median([p.seconds for p, _s in traced])
    first = traced[0][1]
    metrics = {}
    for name in SPAN_NAMES:
        for key, unit in (("calls", "count"), ("errors", "count")):
            metrics[f"{name}.{key}"] = (first["spans"][name][key], unit)
        for key in ("busy_s", "self_s"):
            metrics[f"{name}.{key}"] = (
                median([s["spans"][name][key] for _p, s in traced]), "s")
    for name, value in first["counts"].items():
        unit = "bytes" if name.endswith("bytes") else "count"
        metrics[name] = (value, unit)
    defects = known_defects(passes)
    for name in workloads.DEFECT_NAMES:
        metrics[name] = (defects.get(name, (0.0, None))[0], "ratio")
    for name in ("cli.import_s", "cli.import_scipy_interpolate_s"):
        metrics[name] = (median([i[name] for i in imports]), "s")
    metrics["trace.untraced_op_s"] = (untraced_s, "s")
    metrics["trace.traced_op_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.self_sum_s"] = (
        median([s["self_sum_s"] for _p, s in traced]), "s")
    # work counts must repeat exactly between traced passes
    repeat = all(s["counts"] == first["counts"] for _p, s in traced)
    record.update(
        imports=imports, counts_repeat=repeat,
        self_vs_op=[(s["self_sum_s"], p.seconds) for p, s in traced],
        spans=[[n, round(t0, 9), round(t1, 9), par, pid, err]
               for n, t0, t1, par, pid, err in tracer.spans])
    out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    counts = {"passes_traced": len(traced)}
    return out, counts, passes, t


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SCALES),
                    default="full", help="problem sizes (tiny: self-test)")
    ap.add_argument("--perturb", action="store_true",
                    help="shift every expected value by twice its "
                         "tolerance (self-test of the checks)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if not (SRC / "dipolemem" / "__init__.py").is_file():
            raise BenchError(f"no program: {SRC / 'dipolemem'} is missing")
        work = WORK / f"{args.workload}-{args.seed}-trace{args.trace}"
        previous = previous_digests(work / "record.json", args.scale)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops = workloads.build(args.workload, args.seed,
                              workloads.SCALES[args.scale], work / "inputs")
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "scale": args.scale, "environment": environment(),
                  "inputs": {op.name: {"command": op.cli_args(Path("OUT")),
                                       **op.params} for op in ops}}
        measure = per_layer if args.trace else end_to_end
        metrics, counts, passes, t = measure(ops, work, args.seconds,
                                             args.perturb, record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record.update(metrics=metrics, sample_counts=counts,
                  digests=t["digests"],
                  passes=[{"kind": p.kind, "seconds": p.seconds, "ops": p.ops}
                          for p in passes])
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("samples: " + json.dumps(counts, sort_keys=True))
    if record.get("counts_repeat") is False:
        print("WARNING: work counts differ between traced passes")
    for name, (value, bound) in known_defects(passes).items():
        state = "OVER its" if value > bound else "within"
        print(f"known defect, not counted against the op: {name} = "
              f"{value:.3g}, {state} bound {bound:g}")
    for p in passes:
        for rec in p.ops:
            if not rec["ok"]:
                bad = [n for n, _r, ok in rec["checks"] if not ok]
                print(f"FAILED {p.kind} {rec['op']}: {rec['error']} {bad}")
    combined = hashlib.sha256(json.dumps(t["digests"], sort_keys=True)
                              .encode()).hexdigest()
    same = ("none" if previous is None
            else "same" if previous == t["digests"] else "DIFFERENT")
    print(f"artifact digest: {combined}; previous run of this workload "
          f"and seed: {same}")
    result = {"correct": t["failed"] == 0, "attempted": t["attempted"],
              "failed": t["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
