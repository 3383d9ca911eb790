"""Benchmark of the qlqg command line on three seeded workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (each op drives ``qlqg.cli.main`` in this process; a closed
loop, one op after another, ``QLQG_THREADS`` unset so one worker runs):

``lqg_tracking``
    ``qlqg simulate``: free particle with feedback, position tracking
    beta = 1, Omega_T = I, grid [0, 5] x 5000 steps, 4096 trajectories
    (four 1024-trajectory chunks), 8 trajectory CSVs.  Exercises the
    closed-loop step loop and the Riccati flows; no SME.
``qubit_filtering``
    ``qlqg sme``: driven qubit H0 = 0.5 sx, one channel L = 0.5 sz,
    grid [0, 0.5] x 2000 steps, 1024 trajectories.  Exercises the SME
    ensemble (Hamiltonian branch) and the master flow; no Riccati.
``riccati_flows``
    ``qlqg riccati`` then ``qlqg riccati --dual`` on one free-particle
    scenario with seeded beta and Heisenberg-valid Sigma0, grid [0, 20]
    x 20000 steps.  No random draws; every grid point goes to CSV.

The seed picks ``sim.seed`` (and beta, Sigma0 for ``riccati_flows``).
Each op's outputs are checked against the program's oracles; an op that
raises, exits nonzero, fails its check or changes an exact count fails.

The first op of a run is a warm-up: it fills caches and finishes lazy
imports, and it is checked but not timed.

End-to-end metrics (``--trace 0``, untraced ops only):
``op_cost_ref`` median op cost in reference units: the op's wall time
divided by the time of a fixed reference kernel sampled throughout the
op (``speed.py``).  On a shared host raw wall time drifts by a third
between runs minutes apart, far past any useful bound, while this ratio
holds within a few percent; it moves when the program does more or less
work per op.  ``peak_mem_mb`` is the peak resident set of this process,
which runs one workload only, so no other workload's peak leaks in, and
``setup_s`` the median over fresh interpreters of process start to
scenario written (``import qlqg`` plus generation), each scaled to
seconds at a fixed nominal reference unit by the kernel timed around
it.  Failures are the ``failed`` / ``attempted`` fields of the result.
The raw median ``wall_s``, the reference unit and the raw set-up time
are printed beside them; the first two are also the per-layer
``op.wall_s`` and ``op.kernel_us``.  For the two ensemble
workloads the report also prints ``traj_steps_per_s`` (n_traj x n_steps
/ ``wall_s``).  A tail percentile with ten samples beyond it needs more
ops than a run makes.

Per-layer metrics (``--trace 1``) come from traced ops alternating with
untraced ones; ``spans.py`` defines the spans, and ``LAYER_TIMES``,
``SHARE_SPANS`` and ``COUNT_UNITS`` list the metrics.  Each time is also
a share of the traced op wall time (``trace.wall_s``, the base), and
``trace_overhead_s`` is traced minus untraced median wall time.  Layer
times are raw, so they drift with the host as ``wall_s`` does; the
shares, taken within one op, hold steadier.
Predictions, per layer metric -> end-to-end metric it should move, on
which workload:

- ``riccati.*`` -> ``op_cost_ref``: ``riccati_flows`` most, ``lqg_tracking``
  (about a quarter), nothing on ``qubit_filtering``.  ``riccati.calls``
  is 4 on ``lqg_tracking``: the CLI and ``simulate_closed_loop`` each
  integrate both flows, so reuse shows there.
- ``control.*`` -> ``op_cost_ref`` on ``riccati_flows``.
- ``closed_loop.*`` -> ``op_cost_ref``, ``peak_mem_mb`` on ``lqg_tracking``
  only.
- ``sme.*`` -> ``op_cost_ref``, ``peak_mem_mb`` on ``qubit_filtering`` only.
- ``cli.csv.*`` -> ``op_cost_ref`` on ``riccati_flows``; ``cli.other.ms`` ->
  ``op_cost_ref`` and ``setup_s`` everywhere.

Unmeasured layers: ``phase_space`` (coefficients take microseconds),
``kalman`` (no CLI path calls it) and ``validate`` (not a workload).

Every run also writes ``.bench_out/<workload>/report-seed<N>-trace<T>.json``
with the machine record, each op's sample, problems and output digest,
the counts and, when traced, every span.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer, summarize
from speed import NOMINAL_KERNEL_S, SpeedProbe
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
#: kernel timing before and after each set-up sample
SETUP_KERNEL_S = 0.1
MIN_OPS = 3
#: exact work counts; they must repeat across ops and runs of one source tree
COUNT_UNITS = {
    "riccati.calls": "count", "riccati.steps": "count",
    "closed_loop.traj_steps": "count", "sme.traj_steps": "count",
    "cli.csv.rows": "count", "cli.out_bytes": "bytes",
}
#: per-layer time -> (unit, span name, whether divided by the span's work count)
LAYER_TIMES = {
    "riccati.filter.us_per_step": ("us", "riccati.filter", True),
    "riccati.control.us_per_step": ("us", "riccati.control", True),
    "riccati.cost.ms": ("ms", "riccati.cost", False),
    "control.gain_path.ms": ("ms", "control.gain_path", False),
    "control.dual.ms": ("ms", "control.dual", False),
    "closed_loop.simulate.ns_per_traj_step": ("ns", "closed_loop.simulate", True),
    "closed_loop.mc_cost.ms": ("ms", "closed_loop.mc_cost", False),
    "sme.ensemble.ns_per_traj_step": ("ns", "sme.ensemble", True),
    "sme.master.us_per_step": ("us", "sme.master", True),
    "cli.csv.us_per_row": ("us", "cli.csv", True),
    # the op span's self time is the op time no layer span covers
    "cli.other.ms": ("ms", "op", False),
}
#: share of the traced op wall time -> span name
SHARE_SPANS = {
    name: name for name in (
        "riccati.filter", "riccati.control", "control.gain_path", "control.dual",
        "closed_loop.simulate", "sme.ensemble", "sme.master", "cli.csv",
    )
} | {"cli.other": "op"}
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6, "ns": 1e9}


def load_program():
    """Import qlqg from this checkout's ``src``; exit nonzero when it is absent."""
    src = ROOT / "src"
    if not (src / "qlqg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qlqg sources under {src}")
    sys.path.insert(0, str(src))
    import qlqg.cli

    if Path(qlqg.__file__).resolve().parent != src / "qlqg":
        sys.exit(f"perfbench: imported qlqg from {qlqg.__file__}, not {src}")
    return qlqg.cli


def write_scenario(workload, seed: int, path: Path) -> dict:
    scenario = workload.make_scenario(np.random.default_rng(seed))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(scenario, indent=2), encoding="utf-8")
    return scenario


def measure_setup(args, probe: SpeedProbe) -> list[dict]:
    """Wall time of fresh interpreters that import qlqg and write the
    scenario, each scaled to seconds at the nominal reference unit by the
    kernel timed just before and after it (see ``speed.py``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    cpus = os.sched_getaffinity(0)
    # one vCPU for the kernel and the child, which inherits the mask
    os.sched_setaffinity(0, {min(cpus)})
    samples = []
    try:
        for _ in range(SETUP_SAMPLES):
            kernel = probe.time_kernel(SETUP_KERNEL_S)
            start = time.perf_counter()
            # no timeout: with one, the wait polls and rounds to 50 ms steps
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - start
            unit = statistics.harmonic_mean(kernel + probe.time_kernel(SETUP_KERNEL_S))
            samples.append({"wall_s": wall, "kernel_s": unit,
                            "setup_s": wall * NOMINAL_KERNEL_S / unit})
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


@dataclass
class Op:
    traced: bool
    wall_s: float
    problems: list[str]
    digest: str
    counts: dict
    #: op wall time in reference-kernel units (untraced ops only)
    ref_units: float | None = None
    #: the reference unit during the op (see ``speed.py``), and its sample count
    kernel_s: float | None = None
    kernel_samples: int = 0
    layers: dict = field(default_factory=dict)


def digest_outputs(outs: list[Path]) -> tuple[str, int]:
    h = hashlib.sha256()
    total = 0
    for i, out in enumerate(outs):
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            total += len(data)
            h.update(f"{i}/{path.relative_to(out)}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest(), total


def run_op(cli, workload, scenario, scenario_path: Path, work: Path, tracer,
           probe: SpeedProbe) -> Op:
    outs = [work / f"call{i}" for i in range(len(workload.calls))]
    argvs = []
    for call, out in zip(workload.calls, outs):
        shutil.rmtree(out, ignore_errors=True)
        argvs.append([a.format(scenario=scenario_path, out=out) for a in call])
    problems = []
    sink = io.StringIO()
    # a traced op is timed by its spans; an untraced one samples machine speed
    patched = tracer.installed() if tracer else probe
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), patched:
        root = tracer.span("op") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with root as span:
            try:
                for argv in argvs:
                    code = cli.main(argv)
                    if code != 0:
                        problems.append(f"exit {code}: {sink.getvalue()[-400:]}")
                        break
            except SystemExit as exc:
                problems.append(f"exit {exc.code}: {sink.getvalue()[-400:]}")
            except Exception as exc:  # op boundary: record the failure, keep running
                problems.append(f"raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
    if not problems:
        try:
            problems += workload.check(scenario, outs)
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"check could not read the outputs: {exc!r}")
    digest, out_bytes = digest_outputs(outs)
    op = Op(traced=tracer is not None, wall_s=wall, problems=problems,
            digest=digest, counts={"cli.out_bytes": out_bytes})
    if not tracer:
        op.wall_s = wall - probe.probe_s
        op.kernel_s = probe.kernel_s
        op.kernel_samples = len(probe.samples)
        op.ref_units = op.wall_s / op.kernel_s
    else:
        op.wall_s = span.duration
        op.layers, counts = layer_metrics(summarize(tracer, span), span.duration)
        op.counts.update(counts)
    return op


def layer_metrics(summary: dict, wall: float) -> tuple[dict, dict]:
    """Per-layer times and shares, and the span work counts, of one traced op."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    times = {}
    for metric, (unit, span, per_count) in LAYER_TIMES.items():
        value = get(span, "self_s") * _SCALE[unit]
        if per_count:
            n = get(span, "count")
            value = value / n if n else 0.0
        times[metric] = value
    for label, span in SHARE_SPANS.items():
        times[f"{label}.share_pct"] = 100.0 * get(span, "self_s") / wall
    times["trace.coverage_pct"] = 100.0 - times["cli.other.share_pct"]
    riccati = ("riccati.filter", "riccati.control")
    counts = {
        "riccati.calls": sum(get(s, "calls") for s in riccati),
        "riccati.steps": sum(get(s, "count") for s in riccati),
        "closed_loop.traj_steps": get("closed_loop.simulate", "count"),
        "sme.traj_steps": get("sme.ensemble", "count"),
        "cli.csv.rows": get("cli.csv", "count"),
    }
    return times, counts


def check_counts(ops: list[Op], stored: dict) -> dict:
    """Exact counts must repeat across ops of a run and across runs of one
    source tree for the same (workload, seed); a mismatch fails the op."""
    reference = dict(stored)
    for op in ops:
        for key, value in op.counts.items():
            want = reference.setdefault(key, value)
            if value != want:
                op.problems.append(f"{key} is {value}, earlier ops/runs had {want}")
    return reference


def source_digest() -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "QLQG_THREADS": "unset",
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import qlqg and write the scenario (times set-up)")
    args = parser.parse_args()
    os.environ.pop("QLQG_THREADS", None)
    workload = WORKLOADS[args.workload]
    work = OUT / args.workload

    if args.setup_probe:
        load_program()
        probe = work / f"probe-{os.getpid()}.json"
        write_scenario(workload, args.seed, probe)
        probe.unlink()
        return 0

    cli = load_program()
    probe = SpeedProbe()
    setup = measure_setup(args, probe)
    scenario_path = work / "scenario.json"
    scenario = write_scenario(workload, args.seed, scenario_path)
    tracer = Tracer()
    pattern = (None, tracer) if args.trace else (None,)
    # the first op fills caches and lazy imports: checked, but not timed
    warmup = run_op(cli, workload, scenario, scenario_path, work, None, probe)
    ops: list[Op] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        ops.append(run_op(cli, workload, scenario, scenario_path, work,
                          pattern[len(ops) % len(pattern)], probe))
        estimate = statistics.median(op.wall_s for op in ops)
        if (len(ops) >= MIN_OPS and len(ops) % len(pattern) == 0
                and time.perf_counter() + estimate > deadline):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    machine = machine_record()
    counts_path = work / f"counts-seed{args.seed}.json"
    stored = {}
    if counts_path.is_file():
        record = json.loads(counts_path.read_text(encoding="utf-8"))
        if record.get("source_sha256") == machine["source_sha256"]:
            stored = record["counts"]
    checked = [warmup, *ops]
    counts = check_counts(checked, stored)
    failed = sum(1 for op in checked if op.problems)
    if not failed:
        counts_path.write_text(json.dumps(
            {"source_sha256": machine["source_sha256"], "counts": counts},
            indent=2, sort_keys=True), encoding="utf-8")

    plain = [op for op in ops if not op.traced]
    wall = statistics.median(op.wall_s for op in plain)
    kernel_s = statistics.median(op.kernel_s for op in plain)
    if args.trace:
        traced = [op for op in ops if op.traced]
        metrics = {
            name: statistics.median({**op.layers, **op.counts}[name] for op in traced)
            for name in (*traced[0].layers, *COUNT_UNITS)
        }
        metrics["trace.wall_s"] = statistics.median(op.wall_s for op in traced)
        metrics["trace_overhead_s"] = metrics["trace.wall_s"] - wall
        metrics["op.wall_s"] = wall
        metrics["op.kernel_us"] = kernel_s * 1e6
        units = {name: unit for name, (unit, _, _) in LAYER_TIMES.items()}
        units.update({name: "%" for name in metrics if name.endswith("_pct")})
        units.update(COUNT_UNITS)
        units["trace.wall_s"] = units["trace_overhead_s"] = units["op.wall_s"] = "s"
        units["op.kernel_us"] = "us"
    else:
        metrics = {
            "op_cost_ref": statistics.median(op.ref_units for op in plain),
            "peak_mem_mb": peak_mb,
            "setup_s": statistics.median(s["setup_s"] for s in setup),
        }
        units = {"op_cost_ref": "ref", "peak_mem_mb": "MB", "setup_s": "s"}

    digests = sorted({op.digest for op in checked})
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine, "scenario": scenario, "setup_s_samples": setup,
        "warmup_op": asdict(warmup), "ops": [asdict(op) for op in ops],
        "metrics": metrics, "counts": counts, "output_sha256": digests,
        "spans": [asdict(s) for s in tracer.spans],
    }
    (work / f"report-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"ops: {len(checked)} attempted (1 warm-up), {failed} failed, "
          f"fail_rate {failed / len(checked):.3g}; times are medians of {len(plain)} "
          f"untraced timed ops, too few for a tail percentile with ten samples beyond it")
    print(f"  wall_s {wall:.6g} s, reference unit {kernel_s * 1e6:.6g} us, raw set-up "
          f"{statistics.median(s['wall_s'] for s in setup):.6g} s "
          "(host-speed dependent, unbounded)")
    for op in checked:
        for problem in op.problems:
            print(f"FAILED op: {problem}")
    print("output sha256 (informational): " + ", ".join(digests))
    if workload.traj_steps:
        print(f"  traj_steps_per_s {workload.traj_steps(scenario) / wall:.6g} 1/s "
              "(untraced, from wall_s)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
