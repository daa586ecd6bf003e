"""Configuration-driven experiment runner, report emission, and CLI."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import constants as ct
from . import entropy as ent
from . import linalg as la
from . import ricci as rc
from . import transport as tp
from .config import (
    ALL_TASKS,
    ExperimentConfig,
    build_generator,
    config_from_dict,
    config_from_json,
    fixtures,
)
from .errors import ConfigError, QBecknerError, UnknownFixture
from .semigroup import DbcLindbladian, evolve
from .verify import verify_suite

# ricci's allowance for W's discretization error, relative to each inequality's
# larger side: picked, not measured; ROADMAP item 5's error estimate replaces it
W_DISCRETIZATION = 0.02


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    # bool before int: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return la.matrix_to_json(obj) if obj.ndim == 2 else [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):  # field by field, without asdict's deep copy
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def _estimate_opts(cfg: ExperimentConfig) -> ct.EstimateOpts:
    """The optimizer settings of every constant a task estimates."""
    return ct.EstimateOpts(num_starts=cfg.num_starts, seed=cfg.seed("starts"))


# Each runner returns (results, diagnostics or None, failures): its task's
# report entries and the names of the checks it failed.
Outcome = Tuple[object, Optional[object], List[str]]


def run_constants(cfg: ExperimentConfig, L: DbcLindbladian) -> Outcome:
    """The constants table and ledger, and the optimizer's per-start
    diagnostics of every optimized estimate; fails on the hard ledger."""
    specs = [("poincare", None)] + [("beckner", p) for p in cfg.p_grid] \
        + [("mlsi", None), ("lsi", None)] + [("dual_beckner", q) for q in cfg.q_grid]
    estimates = dict(zip(specs, ct.estimate_constants(L, specs, _estimate_opts(cfg))))
    ledger = ct.bound_ledger(estimates, L.sigma_min, cfg.p_grid)
    rows = []
    for est in estimates.values():
        rows.append({
            "kind": est.kind,
            "p_or_q": est.param,
            "value": est.value,
            "capped": est.capped,
            "num_starts": est.num_starts,
            "residual": est.best_residual,
        })
    names = {k: ct.spec_name(est.kind, est.param) for k, est in estimates.items()}
    return {
        "rows": rows,
        "ledger": ledger.entries,
        "ledger_hard_pass": ledger.hard_pass,
        "estimates": {names[k]: est.value for k, est in estimates.items()},
    }, {names[k]: est.diagnostics for k, est in estimates.items()
        if est.diagnostics is not None}, [] if ledger.hard_pass else ["constants.ledger"]


def run_decay(cfg: ExperimentConfig, L: DbcLindbladian) -> Outcome:
    rng = np.random.default_rng(cfg.seed("master"))
    rho0 = la.random_density(rng, L.d, floor=0.02)
    alphas = {p: ct.alpha_lower(L, p) for p in cfg.p_grid}
    ts = np.linspace(0.0, 5.0, 16)
    rhos = [evolve(L, float(t), "schrodinger", rho0) for t in ts]  # the same for every p
    curves = {}
    for p in cfg.p_grid:
        F0 = ent.p_divergence(rho0, L.sigma, p)
        rows = []
        for t, rho_t in zip(ts, rhos):
            F = ent.p_divergence(rho_t, L.sigma, p)
            bound = float(np.exp(-4.0 * alphas[p] * t / p) * F0)
            rows.append({"t": float(t), "F_p": F, "bound": bound,
                         "within": F <= bound * (1.0 + 1e-6)})
        curves[str(p)] = rows
    all_within = all(r["within"] for rows in curves.values() for r in rows)
    return ({"curves": curves, "alphas": {str(p): a for p, a in alphas.items()},
             "all_within_bound": all_within}, None, [] if all_within else ["decay.bound"])


def run_mixing(cfg: ExperimentConfig, L: DbcLindbladian) -> Outcome:
    alphas = {p: ct.alpha_lower(L, p) for p in cfg.p_grid}
    rows = []
    for eps in cfg.epsilons:
        emp = ct.mixing_time(L, eps, seed=cfg.seed("master"))
        bound = float(min(ct.mixing_bound(p, L.sigma_min, eps, a) for p, a in alphas.items()))
        rows.append({"epsilon": eps, "empirical": emp, "bound_inf": bound,
                     "within": emp <= bound})
    all_within = all(r["within"] for r in rows)
    return ({"rows": rows, "all_within_bound": all_within}, None,
            [] if all_within else ["mixing.bound"])


def run_transport(cfg: ExperimentConfig, L: DbcLindbladian) -> Outcome:
    """The transport solves, and each solve's optimizer steps, evaluations,
    stop, gradient self-test gap and continuity residual; fails on a solve
    that did not converge or misses the trace-distance lower bound; a model
    without jumps, or not primitive, fails up front."""
    L.require_jumps()
    L.require_primitive()
    rng = np.random.default_rng(cfg.seed("master"))
    opts = tp.W2Opts(N=cfg.transport_steps, tol=cfg.transport_tol)
    pairs = [(la.random_density(rng, L.d, floor=0.05),
              la.random_density(rng, L.d, floor=0.05)) for _ in range(2)]
    ps = sorted({min(cfg.p_grid), max(cfg.p_grid)})
    results, diagnostics = [], []
    for i, (r0, r1) in enumerate(pairs):
        for p in ps:
            dist, path = tp.w2p_solve(L, r0, r1, p, opts)
            diagnostics.append({"pair": i, "p": p, "steps": path.steps,
                                "evaluations": path.evaluations, "stop": path.stop,
                                "gradient_gap": path.gradient_gap,
                                "continuity_residual": path.continuity_residual})
            entry = {
                "pair": i, "p": p, "distance": dist,
                "converged": path.converged,
                "endpoint_residual": path.endpoint_residual,
                "action_per_step": list(path.action_per_step),
                "uniformity": (max(path.action_per_step)
                               / max(min(path.action_per_step), 1e-300) - 1.0),
                "trace_lower_bound_ok": la.trace_norm(r1 - r0)
                <= tp.trace_distance_prefactor(L, p) * dist * (1 + 1e-9),
            }
            if p == 2.0:
                flat = tp.flat_w22(L, r0, r1)
                entry["flat_w22"] = flat
                entry["flat_gap"] = abs(dist - flat) / max(flat, 1e-300)
            results.append(entry)
    failures = []
    if not all(s["converged"] for s in results):
        failures.append("transport.converged")
    if not all(s["trace_lower_bound_ok"] for s in results):
        failures.append("transport.trace_bound")
    return {"solves": results}, diagnostics, failures


def run_ricci(cfg: ExperimentConfig, L: DbcLindbladian) -> Outcome:
    """Curvature at the smallest and largest p of the grid; where kappa > 0,
    the inequalities it drives and the estimated Beckner constant that
    kappa p / 2 must not exceed; per p, the diagnostics cond_G and multiplicity
    of ricci_estimate. Fails where an inequality misses by more than
    W_DISCRETIZATION times the larger of its two sides, the transport
    discretization error it inherits. A model without jumps, or not
    primitive, fails up front."""
    L.require_jumps()
    L.require_primitive()
    rng = np.random.default_rng(cfg.seed("master"))
    ps = sorted({min(cfg.p_grid), max(cfg.p_grid)})
    out, diagnostics, violated = {}, {}, False
    states = [la.random_density(rng, L.d, floor=0.05) for _ in range(2)]
    for p in ps:
        est = rc.ricci_estimate(L, p, num_states=cfg.ricci_samples, seed=cfg.seed("master"))
        entry = {"kappa": est.kappa, "samples": est.samples,
                 "worst_state": est.worst_state, "worst_direction": est.worst_direction}
        if est.kappa > 0:
            checks = rc.inequality_checks(L, p, est.kappa, states,
                                          w_opts=tp.W2Opts(N=min(cfg.transport_steps, 12)))
            entry["inequalities"] = checks
            violated = violated or any(
                e["slack"] < -W_DISCRETIZATION * max(abs(e["lhs"]), abs(e["rhs"]))
                for rows in checks.values() for e in rows)
            entry["beckner_vs_curvature"] = {"kappa_p_over_2": est.kappa * p / 2.0}
        out[str(p)] = entry
        diagnostics[str(p)] = {"cond_G": est.cond_G, "multiplicity": est.multiplicity}
    # the Beckner constants of every p with kappa > 0, in one stacked descent
    curved = [p for p in ps if "beckner_vs_curvature" in out[str(p)]]
    alphas = ct.estimate_constants(L, [("beckner", p) for p in curved], _estimate_opts(cfg))
    for p, alpha in zip(curved, alphas):
        out[str(p)]["beckner_vs_curvature"]["alpha_estimate"] = alpha.value
    return out, diagnostics, ["ricci.inequalities"] if violated else []


def run_verify(cfg: ExperimentConfig, L: DbcLindbladian) -> Outcome:
    """The invariant suite; fails on each check that fails."""
    checks = verify_suite(cfg, L)
    return checks, None, [f"verify.{c.name}" for c in checks if c.failed]


RUNNERS = {"constants": run_constants, "decay": run_decay, "mixing": run_mixing,
           "transport": run_transport, "ricci": run_ricci, "verify": run_verify}


def run(cfg: ExperimentConfig) -> Dict:
    """Execute the configured tasks in the order of config.ALL_TASKS; errors
    per task are collected and the run continues. Deterministic given the
    seeds."""
    report: Dict = {"config": cfg.to_dict(), "results": {}, "errors": {},
                    "diagnostics": {}, "timings": {}, "summary": {}}
    L = None
    failures = []
    for task in (t for t in ALL_TASKS if t in cfg.tasks):
        t0 = time.perf_counter()
        try:
            if L is None:
                L = build_generator(cfg)
            out, diagnostics, failed = RUNNERS[task](cfg, L)
            report["results"][task] = out
            if diagnostics is not None:
                report["diagnostics"][task] = diagnostics
            failures += failed
        except QBecknerError as exc:
            report["errors"][task] = f"{type(exc).__name__}: {exc}"
            failures.append(f"{task}.error")
        report["timings"][task] = time.perf_counter() - t0
    report["summary"] = {"failures": failures, "passed": not failures}
    return _jsonable(report)


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows: List[Dict], columns: List[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row.get(c, "")) for c in columns))
    return "\n".join(lines) + "\n"


def emit(report: Dict, fmt: str, outdir: str) -> List[str]:
    """Write the report in the requested format; returns written paths."""
    written = []

    def write(name: str, text: str) -> None:
        path = os.path.join(outdir, name)
        _atomic_write(path, text)
        written.append(path)

    if fmt == "json":
        stripped = {k: v for k, v in report.items() if k != "timings"}
        write("report.json", json.dumps(stripped, indent=2, sort_keys=True))
        write("timings.json", json.dumps(report.get("timings", {}), indent=2,
                                         sort_keys=True))
        return written
    if fmt not in ("csv", "plotdata"):
        raise ConfigError(f"unknown format {fmt!r}")
    # csv writes every table; plotdata the decay curves, the Beckner
    # constants against p and the transport actions
    csv = fmt == "csv"
    results = report.get("results", {})
    if "constants" in results and csv:
        write("constants.csv", _csv(results["constants"]["rows"],
              ["kind", "p_or_q", "value", "capped", "num_starts", "residual"]))
        write("ledger.json", json.dumps(results["constants"]["ledger"],
                                        indent=2, sort_keys=True))
    if "decay" in results:
        for p, rows in results["decay"]["curves"].items():
            write(f"decay_p{p}.csv", _csv(rows, ["t", "F_p", "bound"]))
    if "constants" in results and not csv:
        rows = [r for r in results["constants"]["rows"] if r["kind"] == "beckner"]
        write("constants_vs_p.csv", _csv(rows, ["p_or_q", "value"]))
    if "mixing" in results and csv:
        write("mixing.csv", _csv(results["mixing"]["rows"],
              ["epsilon", "empirical", "bound_inf", "within"]))
    if "transport" in results:
        for entry in results["transport"]["solves"]:
            rows = [{"k": k, "action_k": a}
                    for k, a in enumerate(entry["action_per_step"])]
            write(f"action_pair{entry['pair']}_p{entry['p']}.csv",
                  _csv(rows, ["k", "action_k"]))
    if "verify" in results and csv:
        write("verify.csv", _csv(results["verify"],
              ["name", "status", "lhs", "rhs", "slack"]))
    return written


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _load_config(args) -> ExperimentConfig:
    """The config file or fixture for the task, with the command-line
    overrides applied and the result validated by config_from_dict."""
    if args.config:
        try:
            with open(args.config) as fh:
                data = config_from_json(fh.read()).to_dict()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc.strerror}") from exc
    else:
        data = fixtures(args.fixture).to_dict()
    data["tasks"] = [args.task]
    for key, value in (("p_grid", None if args.p is None else [args.p]),
                       ("transport_steps", args.steps), ("transport_tol", args.tol),
                       ("ricci_samples", args.samples)):
        if value is not None:
            data[key] = value
    if args.seed is not None:  # seeds every random draw, the starts included
        data["seeds"]["master"] = data["seeds"]["starts"] = args.seed
    return config_from_dict(data)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qbeckner",
        description="Functional inequalities and transport metrics of "
                    "detailed-balance quantum Markov semigroups")
    parser.add_argument("task", choices=ALL_TASKS + ["fixtures"],
                        help="task to run, or 'fixtures' to print a canonical config")
    parser.add_argument("--config", help="path to a JSON config")
    parser.add_argument("--fixture", default="depol2",
                        help="fixture name when no --config is given")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", default="json",
                        choices=["json", "csv", "plotdata"])
    parser.add_argument("--p", type=float, default=None,
                        help="restrict the p grid to a single value")
    parser.add_argument("--steps", type=int, default=None,
                        help="transport discretization intervals")
    parser.add_argument("--tol", type=float, default=None,
                        help="transport solver tolerance")
    parser.add_argument("--samples", type=int, default=None,
                        help="curvature sample count")
    args = parser.parse_args(argv)

    try:
        if args.task == "fixtures":
            print(fixtures(args.fixture).to_json())
            return 0
        report = run(_load_config(args))
    except (ConfigError, UnknownFixture) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = emit(report, args.format, args.out)
        if args.format != "json":
            paths += emit(report, "json", args.out)
    except OSError as exc:
        print(f"output error: cannot write output {args.out}: {exc.strerror}", file=sys.stderr)
        return 2
    for p in paths:
        print(f"wrote {p}")
    for c in report["results"].get("verify", []):
        print(f"{c['status']:>5}  {c['name']}  slack={c['slack']:.3e}")
    for task, error in report["errors"].items():
        print(f"{task}: {error}", file=sys.stderr)
    return 0 if report["summary"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
