import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from cellfree_maxmin import PhysicalConfig, harness, pool
from cellfree_maxmin.cli import main as cli_main
from cellfree_maxmin.harness import (
    ExperimentConfig,
    default_config,
    run_cdf,
    run_convergence,
    run_scaling,
    run_single_solve,
    run_verify_rate,
    trial_seed,
)
from cellfree_maxmin.solver_apg import SIGMA_SCHEDULE

FAKE_CLOCK = lambda: 0.0  # noqa: E731 - deterministic time source for byte-identity runs


def tiny_config(kind, out_dir, **kw):
    base = dict(
        kind=kind,
        num_aps=6,
        group_sizes=(2, 2),
        trials=2,
        master_seed=3,
        out_dir=str(out_dir),
        mc_draws=3000,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def config_without_outdir(path):
    doc = json.loads(path.read_text())
    doc.pop("out_dir")  # necessarily differs between two run directories
    return doc


def strip_wall_columns(path):
    """CSV content with wall-clock columns removed (the only nondeterministic
    bytes in any output)."""
    rows = read_csv(path)
    header = rows[0]
    keep = [i for i, name in enumerate(header)
            if not (name.endswith("_s") or name.endswith("wall_s") or name == "elapsed_s")]
    kept = [[r[i] for i in keep] for r in rows]
    # key/value summaries carry wall time as rows instead of columns
    if header == ["key", "value"]:
        kept = [r for r in rows if not r[0].endswith("_s")]
    return kept


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config("cdf", tmp_path)
        doc = cfg.to_json_dict()
        back = ExperimentConfig.from_json_dict(json.loads(json.dumps(doc)))
        assert back == cfg

    def test_defaults_per_kind(self):
        assert default_config("convergence").num_aps == 100
        assert default_config("convergence").group_sizes == (10,) * 4
        assert default_config("cdf").group_sizes == (10, 10)
        assert default_config("scaling").scaling_m_grid == (100, 150, 200)
        assert default_config("verify-rate").mc_draws == 200_000

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            tiny_config("nope", tmp_path)
        with pytest.raises(ValueError):
            tiny_config("cdf", tmp_path, solver="annealing")
        with pytest.raises(ValueError):
            tiny_config("cdf", tmp_path, trials=0)

    @pytest.mark.parametrize("field,bad", [("mc_draws", 0), ("trials", math.nan),
                                           ("mc_draws", math.nan)])
    def test_rejects_nonpositive_counts(self, tmp_path, field, bad):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
            tiny_config("verify-rate", tmp_path, **{field: bad})

    def test_settable_values(self):
        """The 22 dotted names a saved config sets: the scenario, the seed,
        the counts and the output directory. The solvers run at their
        defaults, so no solver setting is among them."""
        doc = default_config("cdf").to_json_dict()
        names = [f"physical.{key}" for key in doc.pop("physical")] + list(doc)
        assert sorted(names) == sorted([
            "kind", "num_aps", "group_sizes", "solver", "trials", "master_seed", "out_dir",
            "scaling_m_grid", "mc_draws",
            *(f"physical.{key}" for key in (
                "bandwidth_hz", "carrier_freq_hz", "noise_figure_db", "temperature_k",
                "pilot_power_w", "data_power_w", "pilot_len_symbols", "shadow_std_db",
                "area_side_m", "pathloss_d0_m", "pathloss_d1_m", "ap_height_m",
                "user_height_m")),
        ])

    # fields of configs saved before the step policy, the oracle's residual
    # tolerance and the cdf thread cap became fixed, the pre-log option and
    # the coherence length went, and the experiments ran the solvers at their
    # defaults: the sections apg and bisection are themselves unknown now
    @pytest.mark.parametrize("key,section", [("alpha0", "apg"), ("t_upper", "bisection"),
                                             ("shadow_db", "physical"), ("sigmas", None),
                                             ("delta", "apg"), ("stop_window", "apg"),
                                             ("eps_soc", "bisection"), ("workers", None),
                                             ("apply_prelog", None),
                                             ("coherence_len_symbols", "physical"),
                                             ("sigma_schedule", None),
                                             ("scaling_fixed_iters", None),
                                             ("eta_scheme", None)])
    def test_unknown_json_key_names_its_path(self, tmp_path, key, section):
        doc = tiny_config("cdf", tmp_path).to_json_dict()
        if section in ("apg", "bisection"):
            doc[section] = {key: 1.0}
            dotted = section
        else:
            (doc[section] if section else doc)[key] = 1.0
            dotted = f"{section}.{key}" if section else key
        with pytest.raises(ValueError, match=f"^unknown config key {dotted}$"):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("section,key,bad", [
        *(("physical", f.name, math.nan) for f in dataclasses.fields(PhysicalConfig)),
        ("physical", "bandwidth_hz", math.inf),
    ])
    def test_saved_config_rejects_a_bad_value_by_name(self, tmp_path, section, key, bad):
        """A value no run can use fails when the config is built, naming its
        field; NaN and infinity arrive through the JSON text as json writes
        and reads them."""
        doc = tiny_config("cdf", tmp_path).to_json_dict()
        doc[section][key] = bad
        doc = json.loads(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{key} "):
            ExperimentConfig.from_json_dict(doc)

    def test_trial_seed_stability(self):
        a = trial_seed(7, 0)
        b = trial_seed(7, 1)
        assert a != b
        assert trial_seed(7, 0) == a


class TestCdfSummary:
    """cdf_{apg,epa}.csv: the pooled rates sorted, with their empirical CDF."""

    def test_monotone_normalized(self, tmp_path):
        out = run_cdf(tiny_config("cdf", tmp_path, trials=2))
        rows = read_csv(tmp_path / "cdf_apg.csv")[1:]
        rates = np.array([float(r[0]) for r in rows])
        cdf = np.array([float(r[2]) for r in rows])
        assert np.all(np.diff(rates) >= 0)
        assert np.all(np.diff(cdf) > 0)
        assert cdf[-1] == 1.0
        assert rates[0] == out["apg"][0] == out["apg"].min()

    def test_single_trial_step_count(self, tmp_path):
        cfg = tiny_config("cdf", tmp_path, trials=1)
        out = run_cdf(cfg)
        assert out["apg"].shape[0] == cfg.dims.num_users


class TestRunners:
    def test_convergence_outputs(self, tmp_path):
        cfg = tiny_config("convergence", tmp_path)
        summary = run_convergence(cfg)
        for name in ("resolved_config.json", "trace_apg.csv", "trace_bisection.csv",
                     "summary.csv"):
            assert os.path.exists(tmp_path / name)
        assert "abs_gap_nats" in summary
        assert summary["abs_gap_nats"] <= 1e-3

    def test_convergence_counts_evaluations(self, tmp_path):
        """summary.csv reports the APG stages' objective evaluations: one at
        each stage's start, then at least two per iteration (value_grad at y
        and one trial)."""
        cfg = tiny_config("convergence", tmp_path, solver="apg")
        summary = run_convergence(cfg)
        with open(tmp_path / "summary.csv") as fh:
            rows = dict(csv.reader(fh))
        assert int(rows["apg_evaluations"]) == summary["apg_evaluations"]
        stages = len(SIGMA_SCHEDULE)
        assert summary["apg_evaluations"] >= stages + 2 * summary["apg_iterations"]

    def test_convergence_scalar_optimum(self, tmp_path):
        # single AP / group / user: both solvers must hit the 1-D optimum
        import numpy as np
        from cellfree_maxmin import (
            Dimensions, PhysicalConfig, build_rate_model, generate_instance, user_rate,
        )

        cfg = tiny_config("convergence", tmp_path, num_aps=1, group_sizes=(1,))
        summary = run_convergence(cfg)
        model = build_rate_model(
            generate_instance(Dimensions(1, 1, (1,)), PhysicalConfig(), cfg.master_seed)
        )
        grid = np.linspace(0.0, 1.0, 20001)
        best = max(user_rate(model, np.array([[g]]), 0, 0) for g in grid)
        assert summary["apg_min_rate_nats"] == pytest.approx(best, abs=1e-6)
        assert summary["bisection_t_star_nats"] == pytest.approx(best, abs=2e-4)

    def test_convergence_single_solver(self, tmp_path):
        cfg = tiny_config("convergence", tmp_path, solver="apg")
        summary = run_convergence(cfg)
        assert "bisection_t_star_nats" not in summary
        assert not os.path.exists(tmp_path / "trace_bisection.csv")

    def test_cdf_outputs(self, tmp_path):
        cfg = tiny_config("cdf", tmp_path, trials=3)
        out = run_cdf(cfg)
        for name in ("cdf_apg.csv", "cdf_epa.csv", "users_apg.csv", "users_epa.csv",
                     "trial_minrates.csv"):
            assert os.path.exists(tmp_path / name)
        rows = read_csv(tmp_path / "cdf_apg.csv")
        assert rows[0] == ["rate_nats", "rate_bits", "cdf"]
        cdf_vals = [float(r[2]) for r in rows[1:]]
        assert cdf_vals == sorted(cdf_vals) and cdf_vals[-1] == 1.0
        assert len(rows) - 1 == 3 * cfg.dims.num_users
        assert 0.0 <= out["dominance_fraction"] <= 1.0

    def test_cdf_parallel_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pool, "cpu_count", lambda: 1)
        serial = run_cdf(tiny_config("cdf", tmp_path / "a", trials=3))
        monkeypatch.setattr(pool, "cpu_count", lambda: 2)
        parallel = run_cdf(tiny_config("cdf", tmp_path / "b", trials=3))
        np.testing.assert_array_equal(serial["apg"], parallel["apg"])
        a = (tmp_path / "a" / "users_apg.csv").read_text()
        b = (tmp_path / "b" / "users_apg.csv").read_text()
        assert a == b

    def test_cdf_outputs_identical_for_any_thread_count(self, tmp_path, monkeypatch):
        real_trial, threads = harness._cdf_trial, {}

        def tracked_trial(cfg, trial):
            threads.setdefault(pool.cpu_count(), set()).add(threading.get_ident())
            return real_trial(cfg, trial)

        monkeypatch.setattr(harness, "_cdf_trial", tracked_trial)
        names = ("users_apg.csv", "users_epa.csv", "trial_minrates.csv", "cdf_apg.csv",
                 "cdf_epa.csv")
        outputs = {}
        for cpus in (1, 2, 3, 8):  # 8 CPUs: one thread per trial
            monkeypatch.setattr(pool, "cpu_count", lambda: cpus)
            out_dir = tmp_path / str(cpus)
            run_cdf(tiny_config("cdf", out_dir, trials=5))
            outputs[cpus] = [(out_dir / name).read_bytes() for name in names]
        assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
        assert outputs[8] == outputs[1]
        assert threads[1] == {threading.get_ident()}
        assert len(threads[2]) <= 2 and len(threads[3]) <= 3 and len(threads[8]) <= 5

    def test_cdf_stress_more_threads_than_cores(self, tmp_path, monkeypatch):
        """Six trial threads switching as often as the interpreter allows
        give the serial outputs: trials share no mutable state."""
        monkeypatch.setattr(pool, "cpu_count", lambda: 1)
        serial = run_cdf(tiny_config("cdf", tmp_path / "serial", trials=6))
        monkeypatch.setattr(pool, "cpu_count", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_cdf(tiny_config("cdf", tmp_path / "threaded", trials=6))
        finally:
            sys.setswitchinterval(interval)
        assert threaded["trial_rows"] == serial["trial_rows"]
        assert (tmp_path / "threaded" / "users_apg.csv").read_bytes() == \
            (tmp_path / "serial" / "users_apg.csv").read_bytes()

    def test_cdf_trial_error_reaches_caller(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pool, "cpu_count", lambda: 2)
        real_trial = harness._cdf_trial

        def failing_trial(cfg, trial):
            if trial == 1:
                raise RuntimeError("trial 1 failed")
            return real_trial(cfg, trial)

        monkeypatch.setattr(harness, "_cdf_trial", failing_trial)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match="trial 1 failed"):
            run_cdf(tiny_config("cdf", tmp_path, trials=4))
        assert threading.active_count() == threads_before
        assert not os.path.exists(tmp_path / "trial_minrates.csv")

    @pytest.mark.parametrize("kind", ["convergence", "single-solve"])
    def test_solver_outputs_identical_for_any_thread_count(self, tmp_path, monkeypatch, kind):
        """Under the zero clock the two solvers' files are byte-identical run
        inline (1 CPU) or on two threads. On 2 and 8 CPUs they meet at a
        barrier, so they ran at the same time, and on 8 with the interpreter
        switching threads as often as it can."""
        threads, barrier = {}, threading.Barrier(2)

        def tracked(part):
            def run(*args):
                cpus = pool.cpu_count()
                threads.setdefault(cpus, set()).add(threading.get_ident())
                if cpus > 1:
                    barrier.wait(timeout=60)
                return part(*args)
            return run

        for name in ("_apg_part", "_bisection_part"):
            monkeypatch.setattr(harness, name, tracked(getattr(harness, name)))
        outputs = {}
        for cpus in (1, 2, 8):
            monkeypatch.setattr(pool, "cpu_count", lambda: cpus)
            out_dir = tmp_path / str(cpus)
            threads_before, interval = threading.active_count(), sys.getswitchinterval()
            if cpus == 8:
                sys.setswitchinterval(1e-6)
            try:
                harness.RUNNERS[kind](tiny_config(kind, out_dir), clock=FAKE_CLOCK)
            finally:
                sys.setswitchinterval(interval)
            assert threading.active_count() == threads_before
            outputs[cpus] = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)
                             if name != "resolved_config.json"}
        assert "trace_bisection.csv" in outputs[1] and "trace_apg.csv" in outputs[1]
        assert outputs[2] == outputs[1] and outputs[8] == outputs[1]
        assert threads[1] == {threading.get_ident()}
        assert len(threads[2]) == 2 and len(threads[8]) == 2

    @pytest.mark.parametrize("failing", ["_apg_part", "_bisection_part"])
    def test_solver_error_reaches_caller(self, tmp_path, monkeypatch, failing):
        monkeypatch.setattr(pool, "cpu_count", lambda: 2)

        def fail(*args):
            raise RuntimeError(f"{failing} failed")

        monkeypatch.setattr(harness, failing, fail)
        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            run_convergence(tiny_config("convergence", tmp_path))
        assert threading.active_count() == threads_before
        assert not os.path.exists(tmp_path / "summary.csv")

    def test_scaling_outputs_and_validation(self, tmp_path):
        cfg = tiny_config("scaling", tmp_path, scaling_m_grid=(4, 6))
        out = run_scaling(cfg)
        rows = read_csv(tmp_path / "scaling.csv")
        assert rows[0][0] == "m_aps"
        assert len(rows) == 3
        assert len(out["apg_wall_s"]) == 2
        with pytest.raises(ValueError):
            run_scaling(tiny_config("scaling", tmp_path, solver="apg"))

    def test_verify_rate_outputs(self, tmp_path):
        cfg = tiny_config("verify-rate", tmp_path, trials=2, mc_draws=40_000,
                          num_aps=4, group_sizes=(2, 2))
        out = run_verify_rate(cfg)
        rows = read_csv(tmp_path / "verify_rate.csv")
        assert rows[0][:4] == ["trial", "instance_seed", "group", "user"]
        assert len(rows) - 1 == 2 * cfg.dims.num_users
        assert out["all_pass"] in (True, False)

    def test_verify_rate_low_confidence_flag(self, tmp_path):
        cfg = tiny_config("verify-rate", tmp_path, trials=1, mc_draws=100,
                          num_aps=4, group_sizes=(2, 2))
        out = run_verify_rate(cfg)
        rows = read_csv(tmp_path / "verify_rate.csv")
        low_conf_col = rows[0].index("low_confidence")
        assert any(r[low_conf_col] == "true" for r in rows[1:])
        assert out["low_confidence"]

    def test_single_solve_outputs(self, tmp_path):
        """The convergence run's summary and traces, plus instance.json and
        the rates at APG's power (bisection's when only bisection runs)."""
        for solver in ("both", "bisection"):
            runs = {}
            for kind in ("convergence", "single-solve"):
                cfg = tiny_config(kind, tmp_path / solver / kind, solver=solver)
                runs[kind] = harness.RUNNERS[kind](cfg, clock=FAKE_CLOCK)
            assert runs["single-solve"] == runs["convergence"]
            conv, single = tmp_path / solver / "convergence", tmp_path / solver / "single-solve"
            extra = {"instance.json", "solution_rates.csv"}
            assert set(os.listdir(single)) == set(os.listdir(conv)) | extra
            for name in set(os.listdir(conv)) - {"resolved_config.json"}:
                assert (single / name).read_bytes() == (conv / name).read_bytes(), name
            rates = [float(r[2]) for r in read_csv(single / "solution_rates.csv")[1:]]
            key = "apg_min_rate_nats" if solver == "both" else "bisection_min_rate_nats"
            assert min(rates) == pytest.approx(runs["convergence"][key], rel=1e-12)


class TestDeterminism:
    def test_byte_identical_with_injected_clock(self, tmp_path):
        for sub in ("r1", "r2"):
            cfg = tiny_config("convergence", tmp_path / sub)
            run_convergence(cfg, clock=FAKE_CLOCK)
        names = sorted(os.listdir(tmp_path / "r1"))
        assert names == sorted(os.listdir(tmp_path / "r2"))
        for name in names:
            if name == "resolved_config.json":
                assert config_without_outdir(tmp_path / "r1" / name) == \
                    config_without_outdir(tmp_path / "r2" / name)
                continue
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_real_clock_differs_only_in_wall_fields(self, tmp_path):
        for sub in ("r1", "r2"):
            run_convergence(tiny_config("convergence", tmp_path / sub))
        for name in sorted(os.listdir(tmp_path / "r1")):
            p1, p2 = tmp_path / "r1" / name, tmp_path / "r2" / name
            if name == "resolved_config.json":
                assert config_without_outdir(p1) == config_without_outdir(p2)
            else:
                assert strip_wall_columns(p1) == strip_wall_columns(p2)

    def test_cdf_byte_identical(self, tmp_path):
        # cdf outputs carry no wall-clock fields at all
        for sub in ("r1", "r2"):
            run_cdf(tiny_config("cdf", tmp_path / sub, trials=2))
        for name in sorted(os.listdir(tmp_path / "r1")):
            if name == "resolved_config.json":
                assert config_without_outdir(tmp_path / "r1" / name) == \
                    config_without_outdir(tmp_path / "r2" / name)
                continue
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


class TestCli:
    def test_emit_config(self, capsys):
        rc = cli_main(["cdf", "--emit-config", "--trials", "7", "--seed", "5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trials"] == 7 and doc["master_seed"] == 5

    def test_config_file_and_overrides(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "cdf", "trials": 9, "num_aps": 11}))
        rc = cli_main(["cdf", "--config", str(cfg_path), "--trials", "4", "--emit-config"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_aps"] == 11
        assert doc["trials"] == 4  # CLI flag beats file

    def test_emit_config_into_closed_pipe(self, tmp_path):
        """A reader that stops after the first line, as `| head -1` does,
        is no failure: exit code 0 and nothing on stderr."""
        cfg_path = tmp_path / "cfg.json"
        # longer than a pipe buffer: the write still runs when the reader closes
        cfg_path.write_text(json.dumps({"scaling_m_grid": [100] * 20000}))
        proc = subprocess.Popen(
            [sys.executable, "-m", "cellfree_maxmin.cli", "cdf", "--config", str(cfg_path),
             "--emit-config"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == ""

    def test_kind_mismatch_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "cdf"}))
        rc = cli_main(["scaling", "--config", str(cfg_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert json.loads(err)["experiment"] == "scaling"

    def test_subprocess_end_to_end(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "cellfree_maxmin.cli", "single-solve",
             "--out", str(tmp_path / "run"), "--seed", "2"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "run" / "solution_rates.csv").exists()

    def test_machine_readable_error(self):
        out = subprocess.run(
            [sys.executable, "-m", "cellfree_maxmin.cli", "scaling", "--solver", "apg"],
            capture_output=True, text=True,
        )
        assert out.returncode == 1
        doc = json.loads(out.stderr)
        assert doc["error"] and doc["type"] == "ValueError"

    def test_unknown_config_key_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"physical": {"shadow_db": 0.5}}))
        out = subprocess.run(
            [sys.executable, "-m", "cellfree_maxmin.cli", "cdf", "--config", str(cfg_path),
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True,
        )
        assert out.returncode == 1
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["type"] == "ValueError"
        assert "physical.shadow_db" in doc["error"]
        assert not (tmp_path / "run").exists()

    def test_no_compiler_error(self, tmp_path):
        """Without a C compiler on PATH the solvers cannot run: the CLI
        prints one JSON error line naming the compilers it looked for."""
        (tmp_path / "empty").mkdir()
        env = dict(os.environ, PATH=str(tmp_path / "empty"),
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
        out = subprocess.run(
            [sys.executable, "-m", "cellfree_maxmin.cli", "single-solve",
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 1
        assert out.stdout == ""
        lines = out.stderr.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["type"] == "RuntimeError"
        assert "cc or gcc" in doc["error"]
