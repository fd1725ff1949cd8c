"""fvaudit benchmark: CLI workloads timed end to end, plus a traced pass.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --seconds 1        # every workload, tables

Run from the repository root.  Each repetition is one single-process
``python -m fvaudit ...`` child built from ``src/`` with BLAS/OpenMP
threads capped at the number of usable cores.  A run repeats its workload
until ``--seconds`` have passed and reports medians.  Every repetition's
report is checked against ``bench/reference``; a repetition fails when its
exit code, any verdict or any reported number disagrees.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``peak_rss_mb``,
``setup_s``).  ``--trace 1`` alternates untraced repetitions with traced
ones (``bench/tracer.py``) and reports the per-layer metrics.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  README.md next to this file says what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import check
import layers
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SETUP_FIRST = 3   # set-up probes before the first repetition
REP_TIMEOUT_S = 150.0
E2E_METRICS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# deterministic per-workload counts: a changed input shows as a changed count
COUNT_KEYS = ("mesh.cells", "scheme.steps", "entropy.face_k_pairs")
PROCESS_METRICS = {"process.cpu_s": "s", "process.sys_s": "s",
                   "process.minor_faults": "count", "process.ivcsw": "count"}


def repo_root() -> Path:
    return HERE.parent


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    cap = str(nproc())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env.pop("FVAUDIT_OUT", None)
    return env


def spawn_and_wait(argv: list[str], env: dict, stdout: Path, stderr: Path):
    """Run one child to completion; (exit code, wall s, rusage).

    The child is reaped with ``os.wait4`` so its own rusage is read, and is
    killed if it outlives ``REP_TIMEOUT_S``.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    watchdog = threading.Timer(REP_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


@dataclass
class Rep:
    """One repetition of a workload."""

    exit_code: int
    wall_s: float
    usage: object
    report: dict
    problems: list = field(default_factory=list)
    spans: dict | None = None


def run_once(root: Path, workload: Workload, seed: int, trace: bool,
             ref: dict | None = None) -> Rep:
    work = root / ".bench_out" / workload.name
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    spans_path = work / "spans.json"
    spans_path.unlink(missing_ok=True)
    cli = workload.argv(seed, str(out_dir))
    if trace:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                "--", *cli]
    else:
        argv = [sys.executable, "-m", "fvaudit", *cli]
    stdout, stderr = work / "stdout.txt", work / "stderr.txt"
    code, wall, usage = spawn_and_wait(argv, child_env(root), stdout, stderr)
    rep = Rep(code, wall, usage, check.collect(stdout.read_text(), out_dir))
    if ref is not None:
        rep.problems = check.compare(rep.report, code, ref)
        if code != ref["exit_code"]:
            rep.problems.append("stderr: " + stderr.read_text()[-2000:])
    if trace:
        if spans_path.exists():
            rep.spans = json.loads(spans_path.read_text())
        else:
            rep.problems.append("traced run wrote no spans")
    return rep


def setup_time(root: Path, workload: Workload, seed: int) -> float:
    """Spawn to exit of interpreter start, ``import fvaudit.cli`` and
    parsing this workload's config: what every invocation pays before any
    mesh exists."""
    work = root / ".bench_out" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "setup_probe.py"),
            *workload.overrides(seed)]
    code, wall, _ = spawn_and_wait(argv, child_env(root),
                                   work / "probe_stdout.txt",
                                   work / "probe_stderr.txt")
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}: "
                           + (work / "probe_stderr.txt").read_text()[-2000:])
    return wall


def median(values) -> float:
    return float(statistics.median(values))


def measure(root: Path, workload: Workload, seed: int, seconds: float,
            trace: bool, ref: dict) -> dict:
    """Repeat a workload within ``seconds``; medians, counts and failures.

    A repetition starts only if it should end within ``seconds``, judged by
    the slowest one so far, so a run's length stays predictable; the first
    always runs.  Set-up probes run at the start and after every
    repetition, so a slow spell of the host does not land on all of them.
    With ``trace`` each repetition is an untraced child followed by a
    traced one, so the end-to-end and process figures always come from
    untraced children.
    """
    start = time.perf_counter()
    setups = [setup_time(root, workload, seed) for _ in range(SETUP_FIRST)]
    plain, traced = [], []
    slowest = 0.0
    while not plain or time.perf_counter() - start + slowest <= seconds:
        began = time.perf_counter()
        plain.append(run_once(root, workload, seed, False, ref))
        if trace:
            traced.append(run_once(root, workload, seed, True, ref))
        setups.append(setup_time(root, workload, seed))
        slowest = max(slowest, time.perf_counter() - began)

    reps = plain + traced
    failed = [r for r in reps if r.problems]
    setup_s = median(setups)
    e2e = {
        "wall_s": median(r.wall_s for r in plain),
        "peak_rss_mb": median(r.usage.ru_maxrss / 1024 for r in plain),
        "setup_s": setup_s,
    }
    result = {"e2e": e2e, "attempted": len(reps), "failed": len(failed),
              "failed_frac": len(failed) / len(reps),
              "problems": [p for r in failed for p in r.problems][:20],
              "walls": [r.wall_s for r in plain], "setups": setups}
    if trace:
        per_rep = [layers.layer_metrics(r.spans, r.wall_s, setup_s)
                   for r in traced if r.spans is not None]
        per_layer = {name: median(m[name] for m in per_rep)
                     for name in layers.metric_names()} if per_rep else {}
        per_layer.update({
            "process.cpu_s": median(r.usage.ru_utime + r.usage.ru_stime
                                    for r in plain),
            "process.sys_s": median(r.usage.ru_stime for r in plain),
            "process.minor_faults": median(r.usage.ru_minflt for r in plain),
            "process.ivcsw": median(r.usage.ru_nivcsw for r in plain),
            "trace.overhead_frac": median(r.wall_s for r in traced)
            / e2e["wall_s"] - 1.0,
        })
        result["per_layer"] = per_layer
        result["counts"] = {k: per_layer.get(k) for k in COUNT_KEYS}
    return result


def layer_unit(name: str) -> str:
    if name in PROCESS_METRICS:
        return PROCESS_METRICS[name]
    if name == "trace.overhead_frac":
        return "fraction"
    return layers.unit(name)


def facts(root: Path, workload: str, seed: int) -> dict:
    """Machine and program facts recorded with every result."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "nproc": nproc(),
            "thread_cap": nproc(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "machine": platform.machine()}


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.4g}"


def run_one(root: Path, args) -> int:
    workload = WORKLOADS[args.workload]
    ref = check.load_reference(workload.name)
    res = measure(root, workload, args.seed, args.seconds, bool(args.trace),
                  ref)
    self_test = check.selftest([workload.name])
    info = facts(root, workload.name, args.seed)
    info["reference_counts"] = ref.get("counts")
    if args.trace:
        info["counts"] = res["counts"]
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": res["e2e"][k], "unit": u}
                   for k, u in E2E_METRICS.items()}
    for p in res["problems"]:
        print(f"check: {p}", file=sys.stderr)
    for p in self_test:
        print(f"output-check self-test: {p}", file=sys.stderr)

    print(f"workload {workload.name}: {len(res['walls'])} untraced "
          f"repetitions, {res['attempted']} checked, {res['failed']} failed "
          f"(failed_frac {res['failed_frac']:.3g})")
    for k, m in metrics.items():
        print(f"  {k:28s} {_fmt(m['value']):>14s} {m['unit']}")
    record = {"facts": info, **res}
    results = root / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("facts " + json.dumps(info))
    print(json.dumps({"correct": res["failed"] == 0 and not self_test,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


def run_all(root: Path, args) -> int:
    """Every workload, untraced and traced, printed as two tables."""
    results = {}
    for name, workload in WORKLOADS.items():
        results[name] = measure(root, workload, args.seed, args.seconds, True,
                                check.load_reference(name))
        print(f"{name}: done", file=sys.stderr, flush=True)
    names = list(WORKLOADS)
    print("end-to-end (untraced medians)")
    print(f"{'metric':34s}" + "".join(f"{n:>14s}" for n in names))
    rows = [(k, u, lambda r, k=k: r["e2e"][k]) for k, u in E2E_METRICS.items()]
    rows.append(("failed_frac", "fraction", lambda r: r["failed_frac"]))
    for key, unit, get in rows:
        print(f"{key + ' [' + unit + ']':34s}"
              + "".join(f"{_fmt(get(results[n])):>14s}" for n in names))
    print()
    print("per layer (traced pass)")
    print(f"{'metric':34s}" + "".join(f"{n:>14s}" for n in names))
    for key in results[names[0]]["per_layer"]:
        label = f"{key} [{layer_unit(key)}]"
        print(f"{label:34s}"[:34] + "".join(
            f"{_fmt(results[n]['per_layer'][key]):>14s}" for n in names))
    failures = check.selftest()
    print(f"output-check self-test: {'FAIL' if failures else 'PASS'}")
    print("facts " + json.dumps(facts(root, "all", args.seed)))
    return 0 if not failures and all(r["failed"] == 0
                                     for r in results.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = repo_root()
    if not (root / "src" / "fvaudit" / "cli.py").is_file():
        print(f"error: no fvaudit sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(root, args)
    return run_one(root, args)


if __name__ == "__main__":
    sys.exit(main())
