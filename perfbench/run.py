"""qbeckner benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload constants|transport|curvature \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
With ``--trace 0`` the workload's passes run for ``--seconds`` and the last
line of output holds the end-to-end metrics. With ``--trace 1`` half the time
runs untraced and half with the per-layer wrappers installed, and the last
line holds the per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported; child processes
# inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedMeter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACE_OUT = HERE / "out"

# Fresh processes timed from spawn to the end of set-up; setup_s is their
# median.
SETUP_PROBES = 5

MODULES = ["cli", "config", "constants", "dirichlet", "entropy", "errors",
           "kernels", "linalg", "ricci", "semigroup", "transport", "verify"]

# Per-layer metrics printed on the last line of a traced run, with units.
# Counts are per pass and repeat exactly for a given seed. A layer that a
# workload never enters reads 0 calls and 0 s there (see README.md).
SELF_TIME_LAYERS = [
    "linalg.herm_eigh", "linalg.partial_dd_tensor", "linalg.lapack",
    "kernels.stable_powdiff", "constants.minimize", "transport.objective",
    "transport.minimize", "ricci.hessian_matrix", "cli.run",
    "config.build_generator"]
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in [
        "linalg.herm_eigh", "linalg.partial_dd_tensor",
        "linalg.lapack.eigh", "linalg.lapack.eigvalsh", "linalg.lapack.svd",
        "linalg.lapack.expm", "kernels.stable_powdiff",
        "semigroup.DbcLindbladian.apply", "semigroup.evolve",
        "entropy.weighted_p_norm", "entropy.entropy_functional",
        "entropy.q_variance", "entropy.p_divergence", "dirichlet.dirichlet_form",
        "constants.estimate_constant", "constants.gradient",
        "transport.w2p_solve", "transport.onsager_matrix",
        "transport.geodesic_shoot", "transport.objective",
        "ricci.ricci_estimate", "ricci.hessian_matrix", "ricci.hessian_form",
        "cli.run", "config.build_generator"]},
    **{name: "count" for name in [
        "constants.minimize.runs", "constants.minimize.nit",
        "constants.minimize.nfev", "constants.optimized_estimates",
        "transport.minimize.runs", "transport.minimize.nit",
        "transport.minimize.nfev"]},
    "constants.evals_per_estimate": "evals/estimate",
    **{f"{name}.self_s": "s" for name in SELF_TIME_LAYERS},
    "trace.overhead_s": "s",
    **{f"src_lines.{m}": "lines" for m in MODULES},
    "src_lines.total": "lines",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up the workload, print the monotonic clock, exit")
    return ap.parse_args(argv)


def make_workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS

    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, str(workdir))


def measure(ops, seconds: float, log, tracer=None) -> dict:
    """Run whole passes over ``ops`` until ``seconds`` have gone by.

    Each op is timed alone and converted to reference seconds (see
    speed.py); its output is checked after that, with tracing paused. An op
    fails if it raises or a check on its output fails. Every later pass must
    reproduce the first pass's outputs exactly.
    """
    out = {"passes": [], "attempted": 0, "failed": 0,
           "unrepeatable": [], "snapshots": []}
    fingerprints = {}
    meter = SpeedMeter()
    t_start = time.perf_counter()
    while True:
        times = []
        out["passes"].append(times)
        for i, op in enumerate(ops):
            out["attempted"] += 1
            if tracer is not None:
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failing op is counted; the run goes on
                dt = time.perf_counter() - t0
                times.append(meter.reference_seconds(dt))
                out["failed"] += 1
                log(f"FAILED {op.name}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.recording = False
            dt = time.perf_counter() - t0
            times.append(meter.reference_seconds(dt))
            if len(out["passes"]) == 1:
                log(f"  {op.name}: {dt:.3f} s measured, {times[-1]:.3f} s counted")
            try:
                problems, fingerprint = op.check(result)
            except Exception as exc:  # a check that cannot run is a failed check
                problems, fingerprint = [f"check raised {type(exc).__name__}: {exc}"], None
            if problems:
                out["failed"] += 1
                log(f"WRONG {op.name}: " + "; ".join(problems))
            elif fingerprints.setdefault(i, fingerprint) != fingerprint:
                out["unrepeatable"].append(op.name)
                log(f"UNREPEATABLE {op.name}: output differs from the first pass")
        if tracer is not None:
            out["snapshots"].append(tracer.snapshot())
            tracer.reset_counts()
        log(f"pass {len(out['passes'])}: {sum(times):.3f} s over {len(ops)} ops")
        if time.perf_counter() - t_start >= seconds:
            return out


def pass_time(run: dict) -> float:
    """Time of one pass: each op's median over the run's passes, summed."""
    return sum(statistics.median(col) for col in zip(*run["passes"]))


def op_median(run: dict) -> float:
    return statistics.median(t for times in run["passes"] for t in times)


def setup_probe_times(workload: str, seed: int) -> list:
    """Set-up times of fresh processes, in reference seconds."""
    meter = SpeedMeter()
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(meter.reference_seconds(float(proc.stdout.split()[-1]) - t0))
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def src_lines() -> dict:
    counts = {}
    for path in sorted((SRC / "qbeckner").glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    out = {f"src_lines.{m}": counts.get(m, 0) for m in MODULES}
    out["src_lines.total"] = sum(counts.values())
    return out


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-pass counts (from the first traced pass) and median self times."""
    snaps = traced["snapshots"]
    first = snaps[0]
    values = {}
    for key in first:
        if key.endswith(".self_s"):
            values[key] = statistics.median(s[key] for s in snaps)
        else:
            values[key] = first[key]
    values["linalg.lapack.self_s"] = sum(
        v for k, v in values.items() if k.startswith("linalg.lapack.") and k.endswith(".self_s"))
    # every dirichlet_form call in a traced op is one Rayleigh-ratio evaluation
    base = values.get("constants.optimized_estimates", 0)
    values["constants.evals_per_estimate"] = (
        values.get("dirichlet.dirichlet_form.calls", 0) / base if base else 0.0)
    values["trace.overhead_s"] = pass_time(traced) - pass_time(untraced)
    values.update(src_lines())
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qbeckner" / "__init__.py").is_file():
        print(f"perfbench: no qbeckner sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        workdir = WORK / f"probe-{os.getpid()}"
        try:
            make_workload(args.workload, args.seed, workdir)
            print(repr(time.monotonic()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    def log(msg: str) -> None:
        print(f"[{args.workload} seed={args.seed}] {msg}", flush=True)

    workdir = WORK / f"run-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        ops = workload.ops()
        if args.trace:
            from tracing import Tracer

            untraced = measure(ops, args.seconds / 2, log)
            tracer = Tracer()
            tracer.install()
            try:
                traced = measure(ops, args.seconds / 2, log, tracer)
            finally:
                tracer.remove()
            TRACE_OUT.mkdir(exist_ok=True)
            tracer.dump(str(TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.npz"))
            runs = [untraced, traced]
            values = per_layer(untraced, traced)
            for key in sorted(values):
                log(f"  {key:48s} {values[key]!r}")
            counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")}
                      for s in traced["snapshots"]]
            counts_repeat = all(c == counts[0] for c in counts)
            if not counts_repeat:
                log("call counts differ between traced passes")
            metrics = {name: {"value": values.get(name, 0.0 if unit == "s" else 0),
                              "unit": unit}
                       for name, unit in PER_LAYER_UNITS.items()}
        else:
            run = measure(ops, args.seconds, log)
            rss = peak_rss_mb()
            setups = setup_probe_times(args.workload, args.seed)
            log(f"set-up probes: {', '.join(f'{t:.3f}' for t in setups)} s")
            runs = [run]
            counts_repeat = True
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": pass_time(run), "unit": "s"},
                "op_median_s": {"value": op_median(run), "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = counts_repeat and not any(r["failed"] or r["unrepeatable"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
