"""Benchmark of the quandles CLI, one cold process per question.

    python3 perfbench/run.py --workload {realize,carrier,color,all} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout: it needs ``src/quandles`` and writes only
under ``.perfbench/``.  One client issues the workload's tasks as
``python -m quandles.cli ... --threads 1`` subprocesses, one at a time
(a closed loop), in whole passes until S seconds have gone by, and checks
every answer.  Each task runs under a timeout and an address-space ceiling
that apply to that child only; a breach is a failed task.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` builds the
inputs once with spans around the constructors, runs one untraced pass, then
replays every task in its own fresh interpreter with spans around the calls
into each module (``traced_task.py``) and reports the per-layer metrics.
``--workload all`` runs every workload in turn, each with its own result line.
The last line of stdout is one JSON object; the full record, with per-task
times, the noise trail and the line counts of ``src/quandles``, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
TASK_TIMEOUT_S = 60
MEMORY_CEILING_MB = 1536      # address space; the heaviest kept task peaks near 690 MB RSS
SETUP_MIN, SETUP_MAX = 3, 10  # set-ups per run: at least 3, and more, up to 10,
SETUP_SECONDS = 3.0           # while they total under 3 s, so short ones get more samples
PROBES_PER_PASS = 16
ISSUE_DEADLINE_S = 100        # no task starts later than this into the run

END_TO_END = {
    "wall_s": "s",            # one pass of the task list, median over passes
    "peak_rss_mb": "MB",      # largest child peak RSS in a pass, median over passes
    "startup_s": "s",         # median wall of `make trivial --n 1` probes
    "setup_s": "s",           # median wall of building the inputs
    "ok_frac": "ratio",       # 1 - fail_frac: answered correctly / attempted
}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "cli.encode_s": "s",
    "quandle.from_json_s": "s", "quandle.validate_s": "s",
    "quandle.validate_alloc_mb": "MB",
    "groups.close_s": "s", "groups.close_order": "count",
    "groups.close_gens": "count", "groups.close_yield": "ratio",
    "groups.table_s": "s", "groups.mul_table_s": "s",
    "groups.aut_check_s": "s", "groups.aut_check_pairs": "count",
    "groups.cosets_s": "s",
    "constructions.phi_space_s": "s", "constructions.vedernikov_s": "s",
    "constructions.build_s": "s",
    "symmetry.inn_s": "s", "symmetry.tr_s": "s", "symmetry.orbits_s": "s",
    "symmetry.aut_s": "s", "symmetry.coset_realization_s": "s",
    "symmetry.sbar_s": "s",
    "regularity.report_s": "s",
    "knots.parse_s": "s", "knots.count_braid_s": "s", "knots.count_pd_s": "s",
    "knots.count_by_orbit_s": "s",
    "trace.overhead_s": "s",  # traced task walls minus untraced task walls
}
SUMMED_COUNTS = ("groups.close_order", "groups.close_gens", "groups.aut_check_pairs")


class SetupFailed(Exception):
    pass


def _ceiling() -> None:
    limit = MEMORY_CEILING_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def spawn(cmd: list[str], cwd: Path, env: dict, stdout: Path, stderr: Path) -> dict:
    """Run one child to completion under the timeout and the memory ceiling.

    Returns wall seconds from spawn to reap, the child's own peak RSS (from
    ``os.wait4``), its exit code and whether it was killed for time.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_ceiling)
        done: dict = {}

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            done.update(end=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(TASK_TIMEOUT_S)
        timed_out = waiter.is_alive()
        if timed_out:
            proc.kill()
            waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(done["status"])
    return {"wall_s": done["end"] - start, "rss_mb": done["usage"].ru_maxrss / 1024,
            "exit": proc.returncode, "timed_out": timed_out}


class Client:
    """The single closed-loop client of one run."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload, self.seed = workload, seed
        self.work = root / ".perfbench" / workload
        self.inputs = self.work / "inputs"
        self.io = self.work / "io"
        self.io.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("QUANDLE_CAP", None)

    def setup(self, spans_file: Path | None = None) -> float:
        """Build the inputs in a fresh interpreter; returns its wall time."""
        cmd = [sys.executable, str(HERE / "inputs.py"), self.workload, str(self.seed),
               str(self.inputs)] + ([str(spans_file)] if spans_file else [])
        ran = spawn(cmd, self.root, self.env, self.io / "setup.out", self.io / "setup.err")
        if ran["exit"] != 0 or ran["timed_out"]:
            tail = (self.io / "setup.err").read_text(errors="replace")[-2000:]
            raise SetupFailed(f"building inputs failed (exit {ran['exit']}):\n{tail}")
        return ran["wall_s"]

    def run_task(self, task: workloads.Task, traced: bool = False) -> dict:
        argv = [*task.argv, "--threads", "1"]
        answer = self.io / "answer.txt"
        report = self.io / "spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_task.py"), str(report), str(answer), *argv]
            stdout = self.io / "traced.out"
        else:
            cmd = [sys.executable, "-m", "quandles.cli", *argv]
            stdout = answer
        answer.unlink(missing_ok=True)
        report.unlink(missing_ok=True)
        ran = spawn(cmd, self.inputs, self.env, stdout, self.io / "stderr.txt")
        stderr = (self.io / "stderr.txt").read_text(errors="replace")
        outcome, reason = "ok", None
        if ran["timed_out"]:
            outcome, reason = "timeout", f"killed after {TASK_TIMEOUT_S} s"
        elif ran["rss_mb"] > MEMORY_CEILING_MB or "MemoryError" in stderr:
            outcome, reason = "memory", f"memory ceiling {MEMORY_CEILING_MB} MB breached"
        elif ran["exit"] != 0:
            outcome, reason = "wrong", f"exit {ran['exit']}: {stderr[-300:]}"
        else:
            reason = task.check(answer.read_text())
            outcome = "wrong" if reason else "ok"
        result = {"task": task.name, "traced": traced, **ran, "outcome": outcome,
                  "reason": reason}
        if traced and ran["exit"] == 0 and report.exists():
            result["trace"] = json.loads(report.read_text())
            report.unlink()
        return result

    def run_pass(self, tasks, probes: int, deadline: float, traced: bool = False) -> dict:
        """Every task once, with ``probes`` startup probes spread between them."""
        probes_before = [0] * len(tasks)
        for j in range(probes):
            probes_before[j * len(tasks) // probes] += 1
        results, startup = [], []
        for task, n_probes in zip(tasks, probes_before):
            if time.perf_counter() > deadline:
                results.append({"task": task.name, "traced": traced, "outcome": "skipped",
                                "reason": "run deadline reached", "wall_s": 0.0,
                                "rss_mb": 0.0})
                continue
            startup += [self.run_task(workloads.STARTUP) for _ in range(n_probes)]
            results.append(self.run_task(task, traced))
        return {"wall_s": sum(r["wall_s"] for r in results),
                "peak_rss_mb": max(r["rss_mb"] for r in results),
                "tasks": results, "startup": startup}


# ---------------------------------------------------------------------------
# the record

def cpu_probe() -> float:
    """Seconds for a fixed pure-Python loop: host speed at that moment."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def noise_trail() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy, "loadavg_start": os.getloadavg(), "cpu_probe_start_s": cpu_probe()}


def line_counts(root: Path) -> dict:
    counts = {p.stem: len(p.read_text().splitlines())
              for p in sorted((root / "src" / "quandles").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def layer_metrics(traced: list[dict], untraced: list[dict], setup_report: dict) -> tuple:
    """Per-layer sums over the traced pass, plus each task's top self times."""
    layer = dict.fromkeys(PER_LAYER, 0.0)
    counts: dict[str, float] = {}
    per_task = {}
    for r in traced:
        trace = r.get("trace")
        if trace is None:
            continue
        own = spans.self_times(trace["spans"])
        for name, sec in own.items():
            layer[name] = layer.get(name, 0.0) + sec
        layer["cli.import_s"] += trace["import_s"]
        layer["cli.stdout_bytes"] += trace["stdout_bytes"]
        for key, value in trace["counts"].items():
            if key == "quandle.validate_alloc_mb":
                counts[key] = max(counts.get(key, 0.0), value)
            else:
                counts[key] = counts.get(key, 0.0) + value
        top = sorted(own.items(), key=lambda kv: -kv[1])[:4]
        per_task[r["task"]] = {"wall_s": r["wall_s"], "import_s": trace["import_s"],
                               "top_self_s": dict(top),
                               "total_s": spans.total_times(trace["spans"])}
    for key in SUMMED_COUNTS + ("quandle.validate_alloc_mb",):
        layer[key] = counts.get(key, 0.0)
    tries = counts.get("groups.close_tries", 0.0)
    layer["groups.close_yield"] = counts.get("groups.close_new", 0.0) / tries if tries else 0.0
    layer["constructions.build_s"] = spans.self_times(setup_report["spans"]).get(
        "constructions.build_s", 0.0)
    layer["trace.overhead_s"] = (sum(r["wall_s"] for r in traced)
                                 - sum(r["wall_s"] for r in untraced))
    missing = sorted(set(m for r in traced if r.get("trace") for m in r["trace"]["missing"]))
    return layer, per_task, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "quandles" / "cli.py").is_file():
        print(f"perfbench: no src/quandles under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    code = 0
    for workload in (workloads.WORKLOADS if args.workload == "all" else (args.workload,)):
        code = max(code, run_workload(root, workload, args.seed, args.seconds, args.trace))
    return code


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run of one workload: set-up, measured passes, record, result line."""
    started = time.perf_counter()
    trail = noise_trail()
    client = Client(root, workload, seed)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/quandles"],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    tasks = workloads.tasks(workload, seed)
    deadline = started + ISSUE_DEADLINE_S
    record: dict = {"workload": workload, "seed": seed, "trace": trace,
                    "seconds": seconds, "excluded": workloads.EXCLUDED}
    try:
        if trace:
            setup_spans = client.io / "setup_spans.json"
            setup_times = [client.setup(setup_spans)]
            setup_report = json.loads(setup_spans.read_text())
            passes = [client.run_pass(tasks, 0, deadline)]
            traced = client.run_pass(tasks, 0, deadline, traced=True)
        else:
            setup_times = []
            while len(setup_times) < SETUP_MIN or (sum(setup_times) < SETUP_SECONDS
                                                   and len(setup_times) < SETUP_MAX):
                setup_times.append(client.setup())
            passes, t0 = [], time.perf_counter()
            while not passes or time.perf_counter() - t0 < seconds:
                passes.append(client.run_pass(tasks, PROBES_PER_PASS, deadline))
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    results = [r for p in passes for r in p["tasks"] + p["startup"]]
    if trace:
        results += traced["tasks"]
    failed = sum(r["outcome"] != "ok" for r in results)
    wrong = sum(r["outcome"] == "wrong" for r in results)
    probes = [r["wall_s"] for p in passes for r in p["startup"]]
    e2e = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "startup_s": statistics.median(probes) if probes else None,
        "setup_s": statistics.median(setup_times),
        "ok_frac": 1 - failed / len(results),
    }
    trail.update(loadavg_end=os.getloadavg(), cpu_probe_end_s=cpu_probe())
    record.update(passes=len(passes), setups=len(setup_times), setup_times_s=setup_times,
                  startup_probes=len(probes), attempted=len(results), failed=failed,
                  fail_frac=failed / len(results), end_to_end=e2e, noise=trail,
                  line_counts=line_counts(root), tasks=results)
    if trace:
        layer, per_task, missing = layer_metrics(traced["tasks"], passes[0]["tasks"],
                                                 setup_report)
        record.update(per_layer=layer, per_task_trace=per_task, missing_targets=missing)
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    for r in results:
        r.pop("trace", None)

    out = root / ".perfbench" / "results" / (
        f"{workload}-seed{seed}-trace{trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, default=str))

    print(f"workload {workload}, seed {seed}, trace {trace}: "
          f"{len(passes)} pass(es) of {len(tasks)} tasks")
    basis = {"wall_s": f"median of {len(passes)} pass(es)",
             "peak_rss_mb": f"median of {len(passes)} pass(es)",
             "startup_s": f"median of {len(probes)} probes",
             "setup_s": f"median of {len(setup_times)} set-up(s)",
             "ok_frac": f"{len(results) - failed} of {len(results)} tasks"}
    for name, unit in END_TO_END.items():
        if e2e[name] is not None:
            print(f"  {name:<12} {e2e[name]:.4f} {unit:<6} ({basis[name]})")
    print(f"  {'fail_frac':<12} {failed / len(results):.4f} ({failed} of {len(results)} failed)")
    for r in results:
        if r["outcome"] != "ok":
            print(f"  FAILED {r['task']}: {r['outcome']}: {r['reason']}")
    if trace:
        for name, info in per_task.items():
            top = ", ".join(f"{k} {v:.2f}" for k, v in info["top_self_s"].items())
            print(f"  {name:<20} {info['wall_s']:6.2f} s; top self times: {top}")
        if missing:
            print(f"  spans not installed (targets gone): {', '.join(missing)}")
    print(f"  noise: nproc {trail['nproc']}, python {trail['python']}, numpy {trail['numpy']}, "
          f"load {trail['loadavg_start'][0]:.2f} -> {trail['loadavg_end'][0]:.2f}, "
          f"cpu probe {trail['cpu_probe_start_s']:.3f} -> {trail['cpu_probe_end_s']:.3f} s")
    print(f"  src/quandles lines: {record['line_counts']['total']}; record: {out.relative_to(root)}")
    print(json.dumps({"correct": wrong == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
