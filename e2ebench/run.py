#!/usr/bin/env python3
"""The ST2 reproduction's end-to-end benchmark, in one command.

    python3 e2ebench/run.py --workload ladder-cold --seed 1 --seconds 24 --trace 0

Run from the repository root.  ``--trace 0`` repeats the workload, each
repetition in a fresh interpreter over cold caches, until ``--seconds``
have passed, and reports the end-to-end metrics (medians over the
repetitions; latency percentiles over all jobs).  ``--trace 1`` runs
one untraced and one traced pass with a single worker and reports the
per-layer metrics.  Both check the program's outputs (see gate.py).
Every metric is printed as ``name = value unit``; the last stdout line
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
import gate  # noqa: E402
import workloads  # noqa: E402

#: No repetition starts once this much of the run has passed, so a run
#: ends well inside its three-minute limit.
LAST_START_S = 120.0
#: Hard limit for any one repetition.
CHILD_TIMEOUT_S = 170.0
#: Jobs needed before stopping: p90 must have ten samples beyond it.
MIN_JOBS = 10 * benchstats.MIN_TAIL
#: Set-up-only starts after each repetition.  Spread over the whole run,
#: they make ``setup_s`` a median over many fresh interpreters that saw
#: different stretches of host speed.
PROBES_PER_REP = 3
#: Fewest set-ups (repetitions plus probes) ``setup_s`` is a median of.
MIN_SETUPS = 10


class ChildFailed(RuntimeError):
    pass


def spawn(cfg: dict, timeout: float) -> dict:
    """Run one repetition (iteration.py) and return its JSON document.
    The child gets its own process group, which is killed on timeout so
    no pool worker outlives the run."""
    workdir = Path(cfg["workdir"])
    env = dict(os.environ)
    env.pop("ST2_SANITIZE", None)
    env["REPRO_CACHE_DIR"] = str(workdir / "default-cache")
    env["REPRO_TRACE_DIR"] = str(workdir / "default-traces")
    cmd = [sys.executable, str(HERE / "iteration.py"),
           repr(time.monotonic()), json.dumps(cfg)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"{cfg['workload']} repetition timed out")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{cfg['workload']} repetition exited with "
                          f"code {proc.returncode}")
    return json.loads(lines[-1])


def _config(args, rundir: Path, name: str, run: bool = True,
            gated: bool = False, trace: bool = False) -> dict:
    """One repetition's configuration.  The traced run and its
    untraced reference use one worker, so every wrapped call lands in
    one process; end-to-end repetitions use the workload's own count."""
    workers = workloads.NPROC if args.workload == "ladder-cold" \
        and not args.trace else 1
    return {"workload": args.workload, "seed": args.seed,
            "workers": workers, "run": run, "gate": gated, "trace": trace,
            "workdir": str(rundir / name)}


def _fmt(values) -> str:
    return " ".join(f"{v:.3f}" for v in values)


def measure(args, rundir: Path) -> tuple:
    """End-to-end run: repeat until ``--seconds`` and enough jobs, with
    set-up probes between the repetitions."""
    start = time.monotonic()
    reps, probes = [], []

    def probe():
        probes.append(spawn(_config(args, rundir, f"probe{len(probes)}",
                                    run=False), 60.0))

    while True:
        elapsed = time.monotonic() - start
        jobs = sum(len(r["latencies"]) for r in reps)
        if reps and (elapsed >= args.seconds and jobs >= MIN_JOBS
                     or elapsed >= LAST_START_S):
            break
        reps.append(spawn(_config(args, rundir, f"rep{len(reps)}",
                                  gated=not reps), CHILD_TIMEOUT_S - elapsed))
        for _ in range(PROBES_PER_REP):
            probe()
    while len(reps) + len(probes) < MIN_SETUPS:
        probe()
    setups = [r["setup_s"] for r in reps + probes]
    tally = gate.Tally()
    for rep in reps:
        tally.merge(gate.Tally.from_dict(rep["tally"]))
    latencies = [x for rep in reps for x in rep["latencies"]]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in reps),
        # the gate grows the sweep's shard, so its repetition is left out
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps[1:]
                                         or reps),
        "job_latency_p50_s": benchstats.percentile(latencies, 0.5),
        "job_latency_p90_s": benchstats.percentile(latencies, 0.9),
    }
    accuracy = reps[0]["accuracy"]
    values.update((k, accuracy[k]) for k in workloads.END_TO_END
                  if k in accuracy)
    extra = {k: v for k, v in accuracy.items() if k not in values}
    notes = [f"repetitions = {len(reps)}, jobs = {len(latencies)}",
             "setup_s samples = " + _fmt(setups),
             "run_s samples = " + _fmt(r["run_s"] for r in reps),
             f"digest = {reps[0]['digest']}"]
    digests = {r["digest"] for r in reps}
    tally.check(len(digests) == 1,
                f"repetitions disagree: digests {sorted(digests)}")
    return values, workloads.END_TO_END, extra, tally, notes


def trace(args, rundir: Path) -> tuple:
    """Traced run: one untraced and one traced single-worker pass."""
    start = time.monotonic()
    plain = spawn(_config(args, rundir, "untraced"), CHILD_TIMEOUT_S)
    traced = spawn(_config(args, rundir, "traced", trace=True),
                   CHILD_TIMEOUT_S - (time.monotonic() - start))
    tally = gate.Tally.from_dict(plain["tally"])
    tally.merge(gate.Tally.from_dict(traced["tally"]))
    tally.check(plain["digest"] == traced["digest"],
                "traced results differ from untraced results")
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = \
        traced["run_s"] / plain["run_s"] - 1.0
    notes = [f"untraced run_s = {plain['run_s']:.4f} s",
             f"digest = {traced['digest']}"]
    return values, workloads.PER_LAYER, {}, tally, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    rundir = ROOT / ".e2ebench_work" / str(os.getpid())
    try:
        values, declared, extra, tally, notes = \
            (trace if args.trace else measure)(args, rundir)
    except (ChildFailed, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()       # only if no other run uses it
        except OSError:
            pass
    print(f"workload = {args.workload}, seed = {args.seed}")
    for note in notes:
        print(note)
    metrics = {}
    for name, unit in declared.items():
        metrics[benchstats.check_name(name)] = {
            "value": float(values.get(name, 0.0)), "unit": unit}
    for name, value in extra.items():
        print(f"{name} = {value:.6g} pp (not in the JSON result: "
              f"seeds-st2 runs without aux, so it has no VaLHALLA rate)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {tally.error_rate:.6g} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
