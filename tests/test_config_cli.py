import copy
import dataclasses
import functools
import json
import os

import numpy as np
import pytest

from qbeckner import cli
from qbeckner import config as cf
from qbeckner import constants as ct
from qbeckner import dirichlet as dh
from qbeckner import entropy as ent
from qbeckner import linalg as la
from qbeckner import ricci as rc
from qbeckner import semigroup as sg
from qbeckner import transport as tp
from qbeckner import errors, verify
from qbeckner.errors import ConfigError, UnknownFixture

# the shared optimizer cut off after one step, so that no path solve converges
ONE_STEP = functools.partial(la.minimize, max_iters=1)


def bad_jumps_config(tasks):
    """A config that passes validation but whose model does not build: its
    jump E_01 at omega = 0 is not a modular eigenvector of sigma, so it
    breaks detailed balance."""
    E01 = np.zeros((2, 2), dtype=complex)
    E01[0, 1] = 1.0
    return cf.ExperimentConfig(
        dimension=2, sigma={"eigenvalues": [0.75, 0.25]},
        generator={"kind": "jumps", "list": [{"V": la.matrix_to_json(E01), "omega": 0.0}]},
        tasks=tasks)


def zoo_model(index):
    """Config of model index of the seeded zoo: the index-th pass of one loop
    over numpy.random.default_rng(2026) with ROADMAP item 4's draws, run with
    4 starts, 4 transport steps, 4 curvature samples, p grid [1.05, 1.5, 2]
    and q grid [1.5]."""
    rng = np.random.default_rng(2026)
    for _ in range(index + 1):
        d = int(rng.integers(2, 5))
        smin = 10 ** rng.uniform(-7, -0.5)
        ev = np.sort(rng.uniform(0.2, 1.0, d))
        ev[0] = 0
        ev = ev / ev.sum() * (1 - smin * d) + smin
        ev /= ev.sum()
        sigma = {"eigenvalues": ev.tolist()}
        if rng.random() < 0.4:
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            sigma["basis"] = la.matrix_to_json(Q)
        kind = str(rng.choice(["depolarizing", "random_dbc"]))
        if kind == "depolarizing":
            generator = {"kind": kind, "gamma": float(rng.uniform(0.3, 3))}
        else:
            generator = {"kind": kind, "pairs": int(rng.integers(0, d + 1)),
                         "diag": int(rng.integers(0, 3)), "seed": int(rng.integers(0, 100))}
    return {"dimension": d, "sigma": sigma, "generator": generator, "num_starts": 4,
            "transport_steps": 4, "ricci_samples": 4, "p_grid": [1.05, 1.5, 2.0],
            "q_grid": [1.5]}


class TestConfig:
    def test_round_trip(self):
        cfg = cf.fixtures("depol2")
        again = cf.config_from_json(cfg.to_json())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            cf.config_from_dict({"dimension": 2, "bogus": 1})

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigError):
            cf.config_from_dict({"p_grid": [0.5]})
        with pytest.raises(ConfigError):
            cf.config_from_dict({"q_grid": [2.0]})
        with pytest.raises(ConfigError):
            cf.config_from_dict({"tasks": ["nonsense"]})

    @pytest.mark.parametrize("key", ["p_grid", "epsilons"])
    def test_empty_grid_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key} must not be empty"):
            cf.config_from_dict({key: []})

    def test_empty_q_grid_accepted(self):
        # it only drops the dual-Beckner rows
        assert cf.config_from_dict({"q_grid": []}).q_grid == []

    def test_ledger_tolerances_not_configurable(self):
        # the bound ledger's tolerances are pinned (constants.HARD_TOL and
        # SOFT_TOL); only the transport discretization tolerance is read
        assert set(cf.DEFAULT_TOLERANCES) == {"w_discretization"}
        for key in ("hard", "soft"):
            with pytest.raises(ConfigError, match="unknown tolerances"):
                cf.config_from_dict({"tolerances": {key: 1e-2}})
        cfg = cf.config_from_dict({"tolerances": {"w_discretization": 0.05}})
        assert cfg.tolerances == {"w_discretization": 0.05}

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="line"):
            cf.config_from_json("{not json")

    def test_sigma_validation(self):
        cfg = cf.ExperimentConfig(dimension=2, sigma={"eigenvalues": [0.9, 0.2]})
        with pytest.raises(ConfigError):
            cf.build_sigma(cfg)

    # sigma is not renormalized, so a trace off 1 by more than round-off
    # made at d = 1 a generator that is not DBC, and every task failed
    @pytest.mark.parametrize("eigenvalues", [[0.99999999999], [0.5, 0.49999999999]])
    def test_sigma_trace_is_one_to_round_off(self, eigenvalues):
        cfg = cf.ExperimentConfig(dimension=len(eigenvalues), sigma={"eigenvalues": eigenvalues})
        with pytest.raises(ConfigError, match=r"sum to 1 to round-off \(sum 0\.99999"):
            cf.build_sigma(cfg)

    def test_build_generator_kinds(self):
        cfg = cf.fixtures("depol2")
        L = cf.build_generator(cfg)
        assert L.primitivity.spectral_gap == pytest.approx(1.0, abs=1e-10)

        E01 = np.zeros((2, 2), dtype=complex)
        E01[0, 1] = 1.0
        jumps_cfg = cf.ExperimentConfig(
            dimension=2, sigma={"eigenvalues": [0.75, 0.25]},
            generator={"kind": "jumps",
                       "list": [{"V": la.matrix_to_json(E01),
                                 "omega": float(np.log(1.0 / 3.0))}]})
        Lj = cf.build_generator(jumps_cfg)
        assert len(Lj.jumps) == 2  # adjoint pair completed

        rnd_cfg = cf.fixtures("random_dbc_seeded")
        La = cf.build_generator(rnd_cfg)
        Lb = cf.build_generator(rnd_cfg)
        assert la.frob(La.generator - Lb.generator) == 0.0

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixture):
            cf.fixtures("nope")

    def test_classical_embed_matches_two_point_chain(self):
        cfg = cf.fixtures("classical_embed")
        L = cf.build_generator(cfg)
        p = 1.5
        est = ct.estimate_constant(L, "beckner", p=p,
                                   opts=ct.EstimateOpts(num_starts=6, seed=3))
        assert est.value == pytest.approx(ct.depol_classical(p, 2), rel=1e-4)


class TestRun:
    def test_empty_tasks_echoes_config(self):
        cfg = cf.fixtures("depol2")
        cfg.tasks = []
        report = cli.run(cfg)
        assert report["config"]["dimension"] == 2
        assert report["results"] == {}
        assert report["summary"]["passed"]

    def test_constants_task(self):
        cfg = cf.fixtures("depol2")
        cfg.tasks = ["constants"]
        cfg.p_grid = [1.5, 2.0]
        cfg.q_grid = [1.5]
        cfg.num_starts = 6
        report = cli.run(cfg)
        rows = report["results"]["constants"]["rows"]
        kinds = {r["kind"] for r in rows}
        assert kinds == {"poincare", "beckner", "mlsi", "lsi", "dual_beckner"}
        assert report["results"]["constants"]["ledger_hard_pass"]

    def test_constants_diagnostics_in_report(self, tmp_path):
        cfg = cf.fixtures("depol2")
        cfg.tasks = ["constants"]
        cfg.p_grid = [1.5]
        cfg.q_grid = []
        cfg.num_starts = 4
        report = cli.run(cfg)
        diag = report["diagnostics"]["constants"]
        assert set(diag) == {"beckner[1.5]", "mlsi", "lsi"}
        for entry in diag.values():
            assert set(entry) == {"iterations", "evaluations", "stops", "values"}
            assert all(len(v) == 4 for v in entry.values())
        # no wall-clock in the diagnostics: a second run writes the same report
        cli.emit(report, "json", str(tmp_path / "a"))
        cli.emit(cli.run(cfg), "json", str(tmp_path / "b"))
        assert (tmp_path / "a" / "report.json").read_text() \
            == (tmp_path / "b" / "report.json").read_text()

    def test_task_errors_collected(self):
        # each task records its own error, and the run goes on after the first
        report = cli.run(bad_jumps_config(["constants", "verify"]))
        assert report["summary"] == {"failures": ["constants.error", "verify.error"],
                                     "passed": False}
        assert set(report["errors"]) == {"constants", "verify"}
        for error in report["errors"].values():
            assert error.startswith("NotModularEigenvector:")
        assert set(report["timings"]) == {"constants", "verify"}


@pytest.fixture(scope="module")
def small_report():
    cfg = cf.fixtures("depol2")
    cfg.tasks = ["constants", "mixing"]
    cfg.p_grid = [1.5, 2.0]
    cfg.q_grid = [1.5]
    cfg.num_starts = 4
    cfg.epsilons = [0.1]
    return cli.run(cfg)


class TestEmit:

    def test_json_excludes_timings(self, small_report, tmp_path):
        paths = cli.emit(small_report, "json", str(tmp_path))
        report = json.loads(open(os.path.join(tmp_path, "report.json")).read())
        assert "timings" not in report
        assert os.path.exists(os.path.join(tmp_path, "timings.json"))

    def test_json_booleans(self, small_report, tmp_path):
        cli.emit(small_report, "json", str(tmp_path))
        text = open(os.path.join(tmp_path, "report.json")).read()
        assert '"passed": true' in text
        assert json.loads(text)["summary"]["passed"] is True

    def test_csv(self, small_report, tmp_path):
        cli.emit(small_report, "csv", str(tmp_path))
        text = open(os.path.join(tmp_path, "constants.csv")).read()
        assert text.splitlines()[0] == "kind,p_or_q,value,capped,num_starts,residual"
        assert os.path.exists(os.path.join(tmp_path, "mixing.csv"))

    def test_plotdata(self, small_report, tmp_path):
        cli.emit(small_report, "plotdata", str(tmp_path))
        assert os.path.exists(os.path.join(tmp_path, "constants_vs_p.csv"))


class TestMain:
    def test_fixtures_subcommand(self, capsys):
        assert cli.main(["fixtures", "--fixture", "depol2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["dimension"] == 2

    def test_bad_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"bogus\": 1}")
        assert cli.main(["constants", "--config", str(path)]) == 2

    @pytest.mark.parametrize("task,entry", [
        ("constants", {"num_starts": 0}),
        ("transport", {"transport_steps": 0}),
        ("transport", {"transport_tol": 0.0}),
        ("ricci", {"ricci_samples": 0}),
        ("mixing", {"epsilons": [3.0]}),
        ("mixing", {"epsilons": [0.0, 0.1]}),
        # the seeds, sigma and generator are checked before any task runs
        ("decay", {"generator": {"kind": "depolarizing", "gamma": -1.0}}),
        ("decay", {"generator": {"kind": "depolarizing", "gamma": 0}}),
        ("decay", {"generator": {"kind": "depolarizing", "gamma": "x"}}),
        # json reads 1e999 and Infinity as inf, and NaN as nan; an integer
        # past the float range overflows where a task converts it
        ("decay", {"generator": {"kind": "depolarizing", "gamma": float("inf")}}),
        ("decay", {"generator": {"kind": "depolarizing", "gamma": 10 ** 400}}),
        ("decay", {"generator": {"kind": "depolarizing", "gamma": float("nan")}}),
        ("transport", {"transport_tol": float("inf")}),
        ("decay", {"generator": {"kind": "jumps", "list": [
            {"V": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "omega": float("nan")}]}}),
        ("ricci", {"tolerances": {"w_discretization": float("nan")}}),
        ("decay", {"sigma": {"eigenvalues": [0.75, 0.25],
                             "basis": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]}}),
        ("ricci", {"tolerances": {"w_discretization": -0.1}}),
        ("decay", {"seeds": {"master": "abc", "starts": 0}}),
        ("decay", {"sigma": {"eigenvalues": "ab"}}),
        ("decay", {"dimension": 2, "generator": {"kind": "random_dbc", "pairs": "x"}}),
        ("decay", {"sigma": {"eigenvalues": [0.75, 0.25], "basis": "ab"}}),
        ("decay", {"sigma": {"eigenvalues": [0.5, 0.6]}}),
        ("decay", {"generator": {"kind": "nope"}}),
        ("decay", {"dimension": 3}),
        ("decay", {"generator": {"kind": "jumps", "list": [{"V": [[[1, 0]]], "omega": 0.0}]}}),
        ("decay", {"generator": {"kind": "jumps",
                                 "list": [{"V": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}]}}),
        # a misspelled nested key would leave its default in force
        ("decay", {"generator": {"kind": "depolarizing", "gama": 2.0}}),
        ("decay", {"dimension": 2, "generator": {"kind": "random_dbc", "pair": 1}}),
        ("decay", {"sigma": {"eigenvalues": [0.75, 0.25], "bassis": None}}),
        ("decay", {"seeds": {"master": 7, "strats": 1}}),
        # an empty grid would check nothing, or fail inside a task
        ("mixing", {"epsilons": []}),
        ("constants", {"p_grid": []}),
        ("decay", {"p_grid": []}),
        ("mixing", {"p_grid": []}),
        ("transport", {"p_grid": []}),
        ("ricci", {"p_grid": []}),
    ])
    def test_unusable_config_value_exit_code(self, tmp_path, capsys, task, entry):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "out"
        assert cli.main([task, "--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", [
        {"num_starts": "3"},
        {"num_starts": 2.0},
        {"dimension": True},
        {"ricci_samples": None},
        {"p_grid": [1.5, "2"]},
        {"q_grid": 1.5},
        {"epsilons": [None]},
        {"transport_tol": "1e-7"},
        {"sigma": [0.75, 0.25]},
        {"generator": "depolarizing"},
        {"tolerances": None},
        {"tolerances": {"w_discretization": "x"}},
        {"tolerances": {"w_discretization": None}},
        {"tasks": "constants"},
    ])
    def test_wrong_type_exit_code(self, tmp_path, capsys, entry):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entry))
        out = tmp_path / "out"
        assert cli.main(["constants", "--config", str(path), "--out", str(out)]) == 2
        assert "must be" in capsys.readouterr().err
        assert not out.exists()

    def test_seeds_not_an_object_with_seed_override(self, tmp_path, capsys):
        # the override is applied after the file is validated
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": 5}))
        out = tmp_path / "out"
        assert cli.main(["constants", "--config", str(path), "--seed", "1",
                         "--out", str(out)]) == 2
        assert "seeds must be an object" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_reaches_constant_starts(self, tmp_path):
        values = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert cli.main(["constants", "--fixture", "depol2", "--seed", seed,
                             "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report["config"]["seeds"] == {"master": int(seed), "starts": int(seed)}
            values.append(report["diagnostics"]["constants"])
        assert values[0] != values[1]

    @pytest.mark.parametrize("argv", [
        ["transport", "--steps", "0"],
        ["transport", "--tol", "0"],
        ["ricci", "--samples", "0"],
        ["constants", "--p", "1.0"],
        ["constants", "--p", "3"],
    ])
    def test_unusable_override_exit_code(self, tmp_path, capsys, argv):
        # the overrides are validated with the config they change
        out = tmp_path / "out"
        assert cli.main(argv + ["--fixture", "depol2", "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_dimension_one_clean(self, tmp_path, capsys):
        cfg = cf.ExperimentConfig(dimension=1, sigma={"eigenvalues": [1.0]},
                                  tasks=["verify"])
        path = tmp_path / "d1.json"
        path.write_text(cfg.to_json())
        assert cli.main(["verify", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert "skip" in capsys.readouterr().out

    @pytest.mark.parametrize("task", cf.ALL_TASKS)
    def test_dimension_one_ends_in_typed_errors(self, tmp_path, task):
        # no task crashes on the scalar model: a failure is a QBecknerError
        # under report["errors"]; only verify, which skips, exits 0. The
        # model has no spectral gap, so constants has nothing to estimate
        path = tmp_path / "d1.json"
        path.write_text(json.dumps({"dimension": 1, "sigma": {"eigenvalues": [1.0]}}))
        code = cli.main([task, "--config", str(path), "--out", str(tmp_path / "out")])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        expected = {"constants": "NotPrimitive", "decay": "NotPrimitive",
                    "mixing": "NotPrimitive", "transport": "NoJumps",
                    "ricci": "NoJumps"}.get(task)
        if expected is None:
            assert (code, report["errors"]) == (0, {})
        else:
            assert code == 1
            assert report["errors"][task].startswith(expected + ":")
            assert issubclass(getattr(errors, expected), errors.QBecknerError)

    def test_ricci_estimates_only_the_constants_it_compares(self, tmp_path):
        # no constants table; at each p with kappa > 0 the Beckner estimate
        # is the one the constants task reports for that p
        out = tmp_path / "out"
        assert cli.main(["ricci", "--fixture", "depol2", "--samples", "4",
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert "constants" not in report["results"]
        assert "constants" not in report["diagnostics"]
        cfg = cf.fixtures("depol2")
        opts = ct.EstimateOpts(num_starts=cfg.num_starts, seed=cfg.seeds["starts"])
        L = cf.build_generator(cfg)
        for p, entry in report["results"]["ricci"].items():
            assert entry["kappa"] > 0
            assert entry["beckner_vs_curvature"]["alpha_estimate"] == \
                ct.estimate_constant(L, "beckner", p=float(p), opts=opts).value

    def test_ricci_reports_cond_G_and_multiplicity_at_the_worst_state(self, tmp_path):
        # one diagnostics entry per p of the task, the condition number of the
        # Gram matrix at the state whose kappa is reported, and the
        # multiplicity of kappa there: at p = 2 all eight generalized
        # eigenvalues of depol3 at sigma are 1, so worst_direction is one of
        # many; at p = 1.05 kappa is simple
        out = tmp_path / "out"
        assert cli.main(["ricci", "--fixture", "depol3", "--samples", "8",
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        results, diagnostics = report["results"]["ricci"], report["diagnostics"]["ricci"]
        assert set(diagnostics) == set(results)
        L = cf.build_generator(cf.fixtures("depol3"))
        for p, entry in results.items():
            _, G = rc.hessian_matrix(L, la.matrix_from_json(entry["worst_state"]), float(p))
            assert diagnostics[p]["cond_G"] == pytest.approx(np.linalg.cond(G), rel=1e-8)
            assert diagnostics[p]["cond_G"] >= 1.0
        assert {p: e["multiplicity"] for p, e in diagnostics.items()} == {"1.05": 1, "2.0": 8}

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_verify_flat_random_model_skips_two_point_check(self, tmp_path, seed):
        # sigma = I/3 does not make the two-point constant apply: only the
        # flat depolarizing model has it
        cfg = cf.ExperimentConfig(
            dimension=3, sigma={"eigenvalues": [1 / 3, 1 / 3, 1 / 3]},
            generator={"kind": "random_dbc", "pairs": 3, "diag": 1, "seed": seed})
        path = tmp_path / "flat.json"
        path.write_text(cfg.to_json())
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 0
        checks = {c["name"]: c for c in json.loads((out / "report.json").read_text())
                  ["results"]["verify"]}
        assert checks["curvature-implies-beckner"]["status"] == "skip"

    def test_verify_default_fixture_passes(self, tmp_path):
        assert cli.main(["verify", "--fixture", "depol2",
                         "--out", str(tmp_path / "out")]) == 0

    def test_verify_distance_symmetry_bound(self):
        # the path energy is reversal-symmetric, so the check's bound is 1e-6
        # relative; the asymmetry itself sits at round-off
        L = cf.build_generator(cf.fixtures("depol3"))
        checks = {c.name: c for c in verify.check_transport(L, np.random.default_rng(3))}
        sym = checks["distance-symmetry"]
        assert sym.status == "pass"
        assert 0.0 < sym.rhs <= 1e-5
        assert sym.lhs <= 1e-8 * sym.rhs

    @pytest.mark.parametrize("fixture", ["depol3", "classical_embed"])
    def test_verify_records_carry_the_tightest_case(self, fixture, monkeypatch):
        # each inequality check that loops over cases records lhs and rhs of
        # the case with the least slack, margins included; recomputed here
        # from the generator state the suite hands to its check
        states = {}
        for name in ("check_operator_inequalities", "check_dirichlet", "check_decay"):
            def spy(*args, check=getattr(verify, name), name=name):
                states[name] = copy.deepcopy(args[-1])
                return check(*args)
            monkeypatch.setattr(verify, name, spy)
        cfg = cf.fixtures(fixture)
        L = cf.build_generator(cfg)
        records = {c.name: c for c in verify.verify_suite(cfg, L)}
        d, sigma = L.d, L.sigma
        mpow = la.matrix_power_hermitian
        power_op = ent.power_operator
        expected = {}

        rng = states["check_operator_inequalities"]
        A = verify._random_pd(rng, d, shift=0.2)
        B = la.random_density(rng, d, floor=0.05) * d
        expected["araki-lieb-thirring"] = [
            (np.trace(mpow(la.herm(mpow(B, r) @ mpow(A, r) @ mpow(B, r)), q)).real,
             np.trace(mpow(la.herm(B @ A @ B), r * q)).real * (1.0 + 1e-10) + 1e-12)
            for r in (0.3, 0.5, 0.9) for q in (1.0, 2.0)]

        X = verify._random_pd(states["check_dirichlet"], d)
        E = functools.partial(dh.dirichlet_form, L)
        expected["stroock-varopoulos"] = [
            (E(power_op(X, sigma, q, 2.0), q) - 1e-9, E(power_op(X, sigma, p, 2.0), p))
            for p, q in ((0.5, 1.5), (0.8, 2.0), (1.2, 1.8), (1.0, 2.0))]
        expected["lp-regularity"] = [
            case for p in (1.25, 1.5, 1.75)
            for E2, Ep in [(E(power_op(X, sigma, 2.0, p), 2.0), E(X, p))]
            for case in ((E2, Ep + 1e-9), (Ep, p * p / (4 * (p - 1)) * E2 + 1e-9))]

        if L.flat_depolarizing_rate is not None:
            rho0 = la.random_density(states["check_decay"], d, floor=0.02)
            X0 = ent.relative_density(rho0, sigma)
            norm = functools.partial(ent.weighted_p_norm, sigma=sigma)
            cases = []
            for p in (1.25, 1.75):
                alpha = ct.alpha_lower(L, p)
                F0 = ent.p_divergence(rho0, sigma, p)
                cases += [(ent.p_divergence(sg.evolve(L, t, "schrodinger", rho0), sigma, p),
                           np.exp(-4.0 * alpha * t / p) * F0 * (1.0 + 1e-6))
                          for t in (0.5, 2.0, 5.0)]
                n_p, n_1 = norm(X0, p=p), norm(X0, p=1.0)
                cases += [(norm(sg.evolve(L, t, "heisenberg", X0) - np.eye(d), p=p),
                           np.exp(-2 * alpha * t / p) * n_p ** (1 - p / 2.0)
                           * np.sqrt(2.0 / (p * (p - 1.0)) * (n_p**p - n_1**p)) * (1 + 1e-9))
                          for t in (0.5, 2.0)]
            expected["classical-decay-certificate"] = cases
        else:
            assert records["classical-decay-certificate"].status == "skip"

        for name, cases in expected.items():
            rec = records[name]
            lhs, rhs = min(cases, key=lambda c: c[1] - c[0])
            assert rec.status == "pass" and rec.slack >= 0.0, name
            assert (rec.lhs, rec.rhs) == (pytest.approx(lhs, rel=1e-9),
                                          pytest.approx(rhs, rel=1e-9)), name
            assert rec.slack == rec.rhs - rec.lhs and rec.rhs != 0.0, name
        # no case is an identity whose slack is its margin alone (p = 2 in
        # lp-regularity was: both of its sides are then one form)
        assert records["lp-regularity"].slack > 1e-9

    def test_unconverged_transport_fails(self, tmp_path, monkeypatch):
        solve = tp.w2p_solve

        def unconverged(*args, **kwargs):
            dist, path = solve(*args, **kwargs)
            return dist, dataclasses.replace(path, converged=False)

        monkeypatch.setattr(tp, "w2p_solve", unconverged)
        out = tmp_path / "out"
        assert cli.main(["transport", "--fixture", "depol2", "--steps", "4",
                         "--out", str(out)]) == 1
        report = json.loads(open(out / "report.json").read())
        assert report["summary"]["failures"] == ["transport.converged"]
        assert report["results"]["transport"]["solves"][0]["converged"] is False

    # models 6 and 15 of the seeded zoo (numpy.random.default_rng(2026)),
    # depolarizing with a small sigma_min: at p = 2 the linear path is the
    # optimum, and the round-off of its unscaled energy gradient exceeded
    # GTOL, so a p = 2 solve stopped on line_search and the task exited 1
    @pytest.mark.parametrize("task", ["transport", "ricci"])
    @pytest.mark.parametrize("eigenvalues, gamma", [
        ([0.0005890944682722635, 0.9994109055317277], 1.3047896553514409),
        ([0.008484420345319984, 0.45783921551833634, 0.5336763641363437],
         0.41634486471340837),
    ], ids=["zoo6", "zoo15"])
    def test_zoo_p2_solves_stop_at_the_linear_path(self, tmp_path, monkeypatch, task,
                                                   eigenvalues, gamma):
        solve, solves = tp.w2p_solve, []

        def recorded(L, rho0, rho1, p, *args, **kwargs):
            dist, path = solve(L, rho0, rho1, p, *args, **kwargs)
            solves.append((p, path.evaluations, path.stop))
            return dist, path

        monkeypatch.setattr(tp, "w2p_solve", recorded)
        config = tmp_path / "zoo.json"
        config.write_text(json.dumps({
            "dimension": len(eigenvalues), "sigma": {"eigenvalues": eigenvalues},
            "generator": {"kind": "depolarizing", "gamma": gamma}, "num_starts": 4,
            "transport_steps": 4, "ricci_samples": 4, "p_grid": [1.05, 1.5, 2.0],
            "q_grid": [1.5]}))
        assert cli.main([task, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        at_2 = [(n, stop) for p, n, stop in solves if p == 2.0]
        assert at_2 and all(s == (1, "gtol") for s in at_2)

    # models 23 (d = 3, rotated sigma, sigma_min = 2.2e-4) and 35 (d = 4,
    # sigma_min = 1.6e-4) of the seeded zoo, both depolarizing: a p = 2 solve
    # of a state and sigma starts at a whitened gradient of round-off, above
    # GTOL; a unit first trial along it stopped on line_search after 11
    # evaluations, and the task exited 1 (OptimizerDiverged)
    @pytest.mark.parametrize("index", [23, 35])
    def test_zoo_p2_solves_at_round_off_stop_on_ftol_or_gtol(self, tmp_path, monkeypatch,
                                                             index):
        solve, stops = tp.w2p_solve, []

        def recorded(L, rho0, rho1, p, *args, **kwargs):
            dist, path = solve(L, rho0, rho1, p, *args, **kwargs)
            stops.append((p, path.stop))
            return dist, path

        monkeypatch.setattr(tp, "w2p_solve", recorded)
        config = tmp_path / "zoo.json"
        config.write_text(json.dumps(zoo_model(index)))
        assert cli.main(["ricci", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        at_2 = [stop for p, stop in stops if p == 2.0]
        assert at_2 and all(stop in ("ftol", "gtol") for stop in at_2)

    # model 2 of the seeded zoo (d = 3, sigma_min = 1.6e-5): each p = 2
    # midpoint had its own eigenframe, whose round-off the central
    # differences of the path-energy self-test amplified past 1e-4, and the
    # task failed with GradientCheckFailed. The identity frame is the same
    # array at every midpoint, so only the step coordinates move the energy
    def test_zoo_p2_self_test_passes_on_the_identity_frame(self, tmp_path):
        config = tmp_path / "zoo.json"
        config.write_text(json.dumps(zoo_model(2)))
        assert cli.main(["transport", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0

    def test_transport_diagnostics_in_report(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["transport", "--fixture", "depol2", "--steps", "4",
                         "--out", str(out)]) == 0
        report = json.loads(open(out / "report.json").read())
        diag = report["diagnostics"]["transport"]
        solves = report["results"]["transport"]["solves"]
        assert [(e["pair"], e["p"]) for e in diag] == [(s["pair"], s["p"]) for s in solves]
        for entry in diag:
            assert set(entry) == {"pair", "p", "steps", "evaluations", "stop", "gradient_gap",
                                  "continuity_residual"}
            assert entry["stop"] in ("ftol", "gtol")
            assert 0.0 <= entry["gradient_gap"] <= 1e-4
            assert 0.0 <= entry["continuity_residual"] <= 1e-10
            assert entry["evaluations"] >= entry["steps"] + 1
        assert any(e["steps"] > 0 for e in diag)

    def test_step_limited_transport_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tp, "minimize", ONE_STEP)
        out = tmp_path / "out"
        assert cli.main(["transport", "--fixture", "depol2", "--steps", "4",
                         "--out", str(out)]) == 1
        report = json.loads(open(out / "report.json").read())
        assert report["summary"]["failures"] == ["transport.converged"]
        assert "max_iters" in {e["stop"] for e in report["diagnostics"]["transport"]}

    def test_step_limited_ricci_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tp, "minimize", ONE_STEP)
        out = tmp_path / "out"
        assert cli.main(["ricci", "--fixture", "depol2", "--p", "1.5",
                         "--samples", "4", "--out", str(out)]) == 1
        report = json.loads(open(out / "report.json").read())
        assert report["summary"]["failures"] == ["ricci.error"]
        error = report["errors"]["ricci"]
        assert error.startswith("OptimizerDiverged")
        assert "state 0 and sigma at p = 1.5" in error

    def test_step_limited_verify_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tp, "minimize", ONE_STEP)
        out = tmp_path / "out"
        assert cli.main(["verify", "--fixture", "depol2", "--out", str(out)]) == 1
        report = json.loads(open(out / "report.json").read())
        assert "verify.transport-converged" in report["summary"]["failures"]

    def test_trace_bound_violation_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tp, "trace_distance_prefactor", lambda L, p: 0.0)
        out = tmp_path / "out"
        assert cli.main(["transport", "--fixture", "depol2", "--steps", "4",
                         "--out", str(out)]) == 1
        report = json.loads(open(out / "report.json").read())
        assert report["summary"]["failures"] == ["transport.trace_bound"]

    def test_ricci_inequality_violation_fails(self, tmp_path, monkeypatch):
        def violated(L, p, kappa, states, **kwargs):
            return {"hwi": [{"lhs": 1.0, "rhs": 0.9, "slack": -0.1}]}

        monkeypatch.setattr(rc, "inequality_checks", violated)
        out = tmp_path / "out"
        assert cli.main(["ricci", "--fixture", "depol2", "--p", "2",
                         "--samples", "4", "--out", str(out)]) == 1
        report = json.loads(open(out / "report.json").read())
        assert report["summary"]["failures"] == ["ricci.inequalities"]

    def test_singular_metric_fails(self, tmp_path, monkeypatch):
        hessian_matrix = rc.hessian_matrix

        def indefinite(L, rho, p):
            H, G = hessian_matrix(L, rho, p)
            return H, G - 2.0 * np.max(np.abs(G)) * np.eye(G.shape[-1])

        monkeypatch.setattr(rc, "hessian_matrix", indefinite)
        out = tmp_path / "out"
        assert cli.main(["ricci", "--fixture", "depol2", "--p", "2",
                         "--samples", "4", "--out", str(out)]) == 1
        report = json.loads(open(out / "report.json").read())
        assert report["summary"]["failures"] == ["ricci.error"]
        assert "SingularMetric" in report["errors"]["ricci"]

    def test_transport_singular_metric_fails(self, tmp_path, monkeypatch):
        basis_gram = tp._basis_gram

        def indefinite(L, rho, p, fr=None):
            fr, C, G = basis_gram(L, rho, p, fr)
            return fr, C, G - 2.0 * np.max(np.abs(G)) * np.eye(G.shape[-1])

        monkeypatch.setattr(tp, "_basis_gram", indefinite)
        out = tmp_path / "out"
        assert cli.main(["transport", "--fixture", "depol2", "--steps", "4",
                         "--out", str(out)]) == 1
        report = json.loads(open(out / "report.json").read())
        assert report["summary"]["failures"] == ["transport.error"]
        assert "SingularMetric" in report["errors"]["transport"]

    @pytest.mark.parametrize("task", ["transport", "ricci"])
    def test_non_primitive_model_fails_up_front(self, tmp_path, task):
        # one adjoint pair and one diagonal jump do not connect the qutrit's
        # three levels; without the up-front check the task raised
        # SingularMetric at whichever Gram matrix happened to fail first (here
        # "step 0 of path 2" and "sample 14")
        config = tmp_path / "reducible.json"
        config.write_text(json.dumps({
            "dimension": 3, "sigma": {"eigenvalues": [0.5, 0.3, 0.2]},
            "generator": {"kind": "random_dbc", "pairs": 1, "diag": 1, "seed": 3}}))
        out = tmp_path / "out"
        assert cli.main([task, "--config", str(config), "--out", str(out)]) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["failures"] == [f"{task}.error"]
        assert report["errors"][task].startswith("NotPrimitive:")

    def test_non_primitive_model_skips_transport_checks(self, tmp_path):
        # verify keeps the checks that hold without primitivity; its W_{2,p}
        # checks, whose Gram matrices are singular up to round-off on a
        # reducible model (SingularMetric at "step 5 of path 0", eigenvalue
        # -1.6e-16, before they were skipped), print skip with the reason
        config = tmp_path / "reducible.json"
        config.write_text(json.dumps({
            "dimension": 3, "sigma": {"eigenvalues": [0.5, 0.3, 0.2]},
            "generator": {"kind": "random_dbc", "pairs": 1, "diag": 1, "seed": 3}}))
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["errors"] == {}
        checks = {c["name"]: c for c in report["results"]["verify"]}
        for name in ("transport-converged", "distance-symmetry", "trace-distance-lower-bound"):
            assert checks[name]["status"] == "skip"
            assert "not primitive" in checks[name]["detail"]
        assert "pass" in {c["status"] for c in checks.values()}

    def _corrupted_generator_fails(self, tmp_path, capsys, task):
        # the config is valid, the model does not build: the task exits 1
        # and names the error on stderr
        path = tmp_path / "broken.json"
        path.write_text(bad_jumps_config([task]).to_json())
        assert cli.main([task, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        report = json.loads(open(tmp_path / "out" / "report.json").read())
        assert report["summary"]["failures"] == [f"{task}.error"]
        assert "NotModularEigenvector" in report["errors"][task]
        err = capsys.readouterr().err
        assert err.startswith(f"{task}: NotModularEigenvector:")
        assert len(err.splitlines()) == 1

    def test_corrupted_generator_fails(self, tmp_path, capsys):
        self._corrupted_generator_fails(tmp_path, capsys, "constants")

    def test_verify_corrupted_generator_fails(self, tmp_path, capsys):
        # verify builds its model like every other task, and fails like them
        self._corrupted_generator_fails(tmp_path, capsys, "verify")

    def test_out_is_a_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert cli.main(["decay", "--fixture", "classical_embed", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"output error: cannot write output {out}:")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_unreadable_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert cli.main(["decay", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}:")
        assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()

    def test_unknown_fixture_names_the_fixtures(self, tmp_path, capsys):
        assert cli.main(["verify", "--fixture", "nope", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: no fixture named 'nope'; the fixtures are ")
        assert err.strip().endswith(", ".join(cf.FIXTURES))
        for name in cf.FIXTURES:  # each one listed exists
            cf.fixtures(name)


class TestDeterminism:
    def test_same_config_same_report(self):
        def one_run():
            cfg = cf.fixtures("depol2")
            cfg.tasks = ["constants"]
            cfg.p_grid = [1.5]
            cfg.q_grid = [1.5]
            cfg.num_starts = 4
            report = cli.run(cfg)
            report.pop("timings")
            return json.dumps(report, sort_keys=True)

        assert one_run() == one_run()


class TestImportHygiene:
    """Loading the package and running a task loads no scipy module; each
    case runs in a fresh interpreter."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

    @pytest.mark.parametrize("code", [
        "import qbeckner.cli",
        "from qbeckner import cli; cli.main(['constants', '--fixture', 'depol3', "
        "'--p', '1.5', '--out', OUT])",
        "from qbeckner import config, ricci; "
        "ricci.ricci_estimate(config.build_generator(config.fixtures('depol3')), 1.5, "
        "num_states=4)",
        "from qbeckner import cli; cli.main(['transport', '--fixture', 'depol2', "
        "'--steps', '4', '--out', OUT])",
        "from qbeckner import cli; cli.main(['verify', '--fixture', 'depol3', '--out', OUT])",
        "from qbeckner import cli; cli.main(['decay', '--fixture', 'classical_embed', "
        "'--out', OUT])",
        "from qbeckner import cli; cli.main(['verify', '--fixture', 'classical_embed', "
        "'--out', OUT])",
    ])
    def test_no_scipy_loaded(self, code, tmp_path):
        import subprocess
        import sys

        script = (f"import sys, contextlib, io; OUT = {str(tmp_path)!r}\n"
                  f"with contextlib.redirect_stdout(io.StringIO()):\n    {code}\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=self.SRC, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip().splitlines()[-1] == "[]"
