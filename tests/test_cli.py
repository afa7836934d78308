import configparser
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import acflow
from acflow.cli import main
from acflow.config import (
    SCHEMA,
    load_config,
    parse_pressure_modes,
    parse_velocity_modes,
    write_json_report,
)
from acflow.integrator import State
from acflow.spaces import ConfigurationError


def test_defaults_fill_minimal_file(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[solver]\nnu = 0.2\neps = 0.05\nn_modes = 4\ndt = 0.002\nhorizon = 0.1\n")
    setup = load_config(str(cfg))
    assert setup.solver.nu == 0.2
    assert setup.solver.eps == 0.05
    assert setup.solver.n_modes == 4
    assert setup.solver.delta == 1.0  # default
    assert setup.provenance["solver.nu"] == "file"
    assert setup.provenance["solver.delta"] == "default"
    assert setup.provenance["solver.seed"] == "default"


def test_override_provenance(tmp_path):
    setup = load_config(None, overrides=["solver.eps=1e-4"])
    assert setup.solver.eps == 1e-4
    assert setup.provenance["solver.eps"] == "override"


def test_validation_error_names_field():
    with pytest.raises(ConfigurationError, match="dt must be positive"):
        load_config(None, overrides=["solver.dt=0"])


def test_unknown_section_and_key(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[warp]\nspeed = 9\n")
    with pytest.raises(ConfigurationError, match="unknown config section"):
        load_config(str(bad))
    bad.write_text("[solver]\nwarp = 9\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(str(bad))
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(None, overrides=["solver.warp=1"])
    with pytest.raises(ConfigurationError, match="must look like"):
        load_config(None, overrides=["solver.dt"])


def test_mode_entry_parsing():
    entries = parse_velocity_modes("force.modes", "1,2,1,0.5; 3,1,2,-0.25")
    assert entries == [(1, 2, 1, 0.5), (3, 1, 2, -0.25)]
    assert parse_velocity_modes("force.modes", "") == []
    with pytest.raises(ConfigurationError, match="force.modes"):
        parse_velocity_modes("force.modes", "1,2,0.5")
    p = parse_pressure_modes("initial_p.modes", "cs,1,2,0.5; sc,2,2,1.0")
    assert p == [("cs", 1, 2, 0.5), ("sc", 2, 2, 1.0)]


def test_defaults_cover_every_section_key():
    setup = load_config(None)
    for section, keys in SCHEMA.items():
        for key in keys:
            assert f"{section}.{key}" in setup.values


def test_readme_configuration_block_states_the_schema_defaults():
    # README's ini block, with its '#' comments, sets every key it names to
    # the schema's default and names every key whose default is not empty
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read_string(block)
    listed = {f"{s}.{k}": v for s in parser.sections() for k, v in parser.items(s)}
    defaults = {f"{s}.{k}": spec[0] for s, keys in SCHEMA.items() for k, spec in keys.items()}
    assert {key: defaults.get(key) for key in listed} == listed
    assert {key for key, value in defaults.items() if value} <= set(listed)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_subcommand_outputs_and_digest(tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["run", "--out", str(out), "--set", "solver.horizon=0.01",
         "--set", "solver.n_modes=4", "--quiet"]
    )
    assert rc == 0
    csv = (out / "run.csv").read_text().splitlines()
    assert csv[0].startswith("# manifest=")
    digest = csv[0].split("=", 1)[1]
    assert len(digest) == 64
    assert csv[1] == "t,l2_u,h1_u,l4_u,l2_p,l2_div_u,energy,residual"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["digest"] == digest
    assert "run.csv" in manifest["outputs"]
    snap = _read(out / "run_final.bin")
    assert snap[:4] == b"ACSN"
    assert digest.encode() in snap


def test_run_twice_is_byte_identical(tmp_path):
    args = ["run", "--set", "solver.horizon=0.01", "--set", "solver.n_modes=4", "--quiet"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _read(out1 / "run.csv") == _read(out2 / "run.csv")
    assert _read(out1 / "run_final.bin") == _read(out2 / "run_final.bin")
    assert _read(out1 / "manifest.json") == _read(out2 / "manifest.json")


def test_mc_energy_worker_count_does_not_change_bytes(tmp_path):
    # run_path splits every ensemble into threads, the sweep's too
    common = ["--quiet", "--set", "solver.horizon=0.02", "--set", "solver.n_modes=4", "--paths", "6"]
    cases = (
        ("mc-energy", "mc_energy", []),
        ("sweep-eps", "sweep_eps", ["--set", "sweep.eps_values=0.1,0.001"]),
    )
    for command, stem, extra in cases:
        out1, out2 = tmp_path / command / "w1", tmp_path / command / "w4"
        assert main([command, *common, *extra, "--out", str(out1), "--workers", "1"]) == 0
        assert main([command, *common, *extra, "--out", str(out2), "--workers", "4"]) == 0
        assert _read(out1 / f"{stem}.csv") == _read(out2 / f"{stem}.csv")
        assert _read(out1 / f"{stem}.json") == _read(out2 / f"{stem}.json")


def test_blas_thread_count_does_not_change_bytes(tmp_path):
    # the implicit inverse is built with numpy's OpenBLAS at one thread, so a
    # stepping command writes the same bytes at any OPENBLAS_NUM_THREADS; the
    # N=12 run is the large-n shape, a 288 x 288 inverse and its gemv per step
    src = os.path.dirname(os.path.dirname(acflow.__file__))
    commands = {
        "mc_energy.csv": ("mc-energy", "--paths", "4", "--set", "solver.horizon=0.1"),
        "run.csv": ("run", "--set", "solver.n_modes=12", "--set", "solver.horizon=0.05"),
    }
    for output, argv in commands.items():
        digests = {}
        for threads in ("1", "2"):
            out = tmp_path / f"{argv[0]}-t{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "acflow.cli", *argv, "--quiet", "--out", str(out)],
                env=env, check=False, timeout=300,
            )
            digests[threads] = {
                f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()
            }
        assert output in digests["1"]
        assert digests["1"] == digests["2"], argv[0]


def _digests(out):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


def test_import_and_run_load_no_scipy(tmp_path):
    # numpy and the standard library only: in a process where scipy cannot
    # be imported, the stepping commands write the bytes of an unblocked run,
    # and scipy's copy of OpenBLAS (libscipy_openblas-*.so) is never mapped
    commands = {
        "run": ["run", "--set", "solver.n_modes=4"],
        "mc-energy": ["mc-energy", "--paths", "4"],
    }
    code = (
        "import json, os, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import acflow.cli\n"
        "commands, out = json.loads(sys.argv[1]), sys.argv[2]\n"
        "rcs = [acflow.cli.main(argv + ['--quiet', '--set', 'solver.horizon=0.1',\n"
        "                               '--out', os.path.join(out, name)])\n"
        "       for name, argv in commands.items()]\n"
        "with open('/proc/self/maps') as fh:\n"
        "    libs = {line.split()[-1] for line in fh if 'openblas' in line}\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps({'rcs': rcs, 'libs': sorted(libs), 'scipy': scipy}))\n"
    )
    src = os.path.dirname(os.path.dirname(acflow.__file__))
    blocked = tmp_path / "blocked"
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(commands), str(blocked)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["rcs"] == [0, 0] and seen["scipy"] == [], seen
    assert not [lib for lib in seen["libs"] if "libscipy_openblas-" in os.path.basename(lib)]
    assert len(seen["libs"]) <= 1, seen["libs"]  # numpy's own OpenBLAS, if it bundles one
    for name, argv in commands.items():
        out = tmp_path / "unblocked" / name
        argv = argv + ["--quiet", "--set", "solver.horizon=0.1", "--out", str(out)]
        assert main(argv) == 0
        assert _digests(blocked / name) == _digests(out), name


def test_verify_subcommand(tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "--samples", "12", "--seed", "42", "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "verify.csv").read_text().splitlines()
    assert lines[1] == "lemma,seed,lhs,rhs,margin,pass"
    summary = json.loads((out / "verify.json").read_text())
    assert summary["pass"] is True
    assert summary["failures"] == []


def test_uniqueness_subcommand(tmp_path):
    out = tmp_path / "u"
    rc = main(
        ["uniqueness", "--quiet", "--out", str(out),
         "--set", "solver.horizon=0.02", "--set", "solver.n_modes=4"]
    )
    assert rc == 0
    summary = json.loads((out / "uniqueness.json").read_text())
    assert summary["pass"] is True
    assert summary["max_increase"] <= summary["tolerance"]


def test_sweep_subcommand_small(tmp_path):
    out = tmp_path / "s"
    rc = main(
        ["sweep-eps", "--quiet", "--out", str(out),
         "--set", "solver.horizon=0.05", "--set", "solver.n_modes=4",
         "--set", "sweep.eps_values=0.1,0.001", "--paths", "3"]
    )
    assert rc == 0
    summary = json.loads((out / "sweep_eps.json").read_text())
    assert summary["pass"] is True
    lines = (out / "sweep_eps.csv").read_text().splitlines()
    assert lines[1].startswith("eps,")
    assert len(lines) == 4  # header comment + columns + 2 eps rows


def test_sweep_json_on_zero_data_is_strict_json(tmp_path):
    # zero force, noise and initial data: every sup is 0, so no rate is
    # defined; it is written as null, never as a bare NaN token.  u = 0 is
    # the exact limit, so the sweep passes: a divergence sup that stays at 0
    # counts as decreasing
    out = tmp_path / "z"
    rc = main(
        ["sweep-eps", "--quiet", "--out", str(out), "--paths", "3",
         "--set", "solver.horizon=0.01",
         "--set", "sweep.noise_trace=0", "--set", "sweep.force_modes="]
    )

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    summary = json.loads((out / "sweep_eps.json").read_text(), parse_constant=refuse)
    assert summary["div_rates"] == [None] * 3 and summary["diff_rates"] == [None] * 3
    assert (rc, summary["pass"], summary["divergence_strictly_decreasing"]) == (0, True, True)
    with pytest.raises(ValueError):
        write_json_report(tmp_path / "nan.json", {"rate": float("nan")}, "0" * 64)


_SUMMARY_LINES = {
    "verify": (["--samples", "4"], r"\d+ checks, \d+ violations"),
    "mc-energy": (["--paths", "4"], r"energy bound over 3 weight rates: pass=(True|False)"),
    "mc-moment": (["--paths", "4"], r"implied constant \S+ \(spread \S+\)"),
    "uniqueness": ([], r"max weighted-difference increase \S+"),
    "sweep-eps": (
        ["--paths", "2", "--set", "sweep.eps_values=0.1,0.001"],
        r"sweep: 0\.1->\S+ 0\.001->\S+",
    ),
}


@pytest.mark.parametrize("command", sorted(_SUMMARY_LINES))
def test_summary_holds_seed_and_verdict_and_stdout_ends_with_them(tmp_path, capsys, command):
    extra, progress = _SUMMARY_LINES[command]
    out = tmp_path / command
    rc = main(
        [command, "--out", str(out), "--seed", "7",
         "--set", "solver.n_modes=4", "--set", "solver.horizon=0.02", *extra]
    )
    summary = json.loads((out / f"{command.replace('-', '_')}.json").read_text())
    assert summary["seed"] == 7
    assert isinstance(summary["pass"], bool)
    assert rc == (0 if summary["pass"] else 1)
    digest = json.loads((out / "manifest.json").read_text())["digest"]
    tail = capsys.readouterr().out.splitlines()[-3:]
    assert re.fullmatch(progress, tail[0])
    assert tail[1] == f"manifest {digest[:12]} -> {out / 'manifest.json'}"
    assert tail[2] == ("PASS" if summary["pass"] else "FAIL")


def test_sweep_snapshots_are_the_states_of_path_0(tmp_path):
    # kept while the sweep runs path 0 in its block, as a solo run keeps
    # them; the times are listed out of order
    from acflow import build_spaces
    from acflow.eps_limit import DEFAULT_SWEEP_FORCE_MODES
    from acflow.forcing import default_noise
    from acflow.integrator import (
        GalerkinIntegrator,
        SolverConfig,
        project_initial,
        read_snapshot,
        write_snapshot,
    )

    out = tmp_path / "s"
    rc = main(
        ["sweep-eps", "--quiet", "--out", str(out), "--workers", "2",
         "--set", "solver.horizon=0.02", "--set", "solver.n_modes=4",
         "--set", "sweep.eps_values=0.1,0.001", "--paths", "5",
         "--set", "sweep.snapshot_times=0.02,0,0.0104"]
    )
    assert rc in (0, 1)
    sp = build_spaces(4)
    force = sp.velocity_from_modes(DEFAULT_SWEEP_FORCE_MODES)
    manifest = json.loads((out / "manifest.json").read_text())
    for eps in (0.1, 0.001):
        cfg = SolverConfig(n_modes=4, horizon=0.02, eps=eps)
        integ = GalerkinIntegrator(sp, cfg, force=force, noise=default_noise(sp))
        rec = integ.run_path(project_initial(sp, None, None), 0, keep_steps=[0, 10, 20])
        for j, t in enumerate(("0", "0.0104", "0.02")):
            name = f"sweep_eps{eps:g}_t{t}.bin"
            digest = read_snapshot(out / name)[1]
            state = State(rec.kept_u[j], rec.kept_p[j], float(rec.times[10 * j]))
            write_snapshot(tmp_path / "want.bin", state, digest)
            assert (out / name).read_bytes() == (tmp_path / "want.bin").read_bytes()
            assert name in manifest["outputs"]


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_config_error_exits_2(tmp_path):
    rc = main(["run", "--set", "solver.dt=0", "--quiet", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "command, override",
    [
        ("mc-energy", "monte_carlo.paths=abc"),
        ("mc-energy", "monte_carlo.deltas=x"),
        ("sweep-eps", "sweep.snapshot_times=abc"),
        ("uniqueness", "uniqueness.perturb_mode=a,b,c"),
        ("run", "noise.trace=-1"),
        ("sweep-eps", "sweep.noise_trace=-1"),
        ("run", "solver.n_modes=x"),
        # the removed key, at values it once refused
        ("run", "solver.quad_order=0"),
        ("run", "solver.quad_order=10"),
        ("run", "solver.quad_order=-3"),
        ("run", "force.modes=a,1,1,0.4"),
        ("run", "noise.modes=1,1,1,x"),
        ("run", "initial_u.modes=1,1,1"),
        ("run", "initial_p.modes=cs,x,1,0.4"),
        ("sweep-eps", "sweep.force_modes=1,1,y,0.4"),
        ("run", "noise.n_terms=-2"),
        ("mc-energy", "monte_carlo.deltas="),
        ("sweep-eps", "sweep.snapshot_times=-0.5"),
        ("sweep-eps", "sweep.snapshot_times=0.2,7"),
        ("sweep-eps", "sweep.snapshot_times=0.0101,0.0104"),
        ("mc-energy", "monte_carlo.paths=1"),
        ("mc-moment", "monte_carlo.paths=3"),
        ("sweep-eps", "sweep.paths=0"),
        ("run", "solver.dt=nan"),
        ("run", "solver.horizon=inf"),
        ("run", "solver.nu=nan"),
        ("sweep-eps", "sweep.eps_values=nan"),
        ("mc-energy", "monte_carlo.deltas=nan"),
        pytest.param(
            "run", "noise.modes=" + "; ".join(["1,1,1,0.1"] * 129), id="run-noise.modes=129 terms"
        ),
        ("mc-energy", "monte_carlo.deltas=0,1"),
        ("mc-moment", "solver.delta=0"),
        ("sweep-eps", "sweep.eps_values=0.1,0.2"),
        ("sweep-eps", "sweep.eps_values="),
        ("mc-energy", "monte_carlo.confidence_z=-1"),
        ("mc-moment", "monte_carlo.moment_stability_tol=-0.1"),
        ("uniqueness", "uniqueness.c_check=-1"),
        ("run", "solver.dt=0"),
        ("run", "solver.n_modes=65"),
        ("run", "force.modes=1,1,3,0.4"),
        ("run", "initial_p.modes=xx,1,1,0.4"),
        ("run", "force.modes=-3,1,1,0.4"),
        ("run", "force.modes=1,0,2,0.4"),
        ("run", "noise.modes=1,1,1,0.1; 2,-1,1,0.1"),
        ("run", "initial_u.modes=0,1,1,1.0"),
        ("run", "initial_p.modes=cs,1,0,0.5"),
        ("run", "initial_p.modes=sc,-2,1,0.5"),
        ("sweep-eps", "sweep.force_modes=1,1,1,0.4; 0,2,2,0.2"),
        ("uniqueness", "uniqueness.perturb_mode=9,1,1"),
        ("uniqueness", "uniqueness.perturb_mode=1,1,3"),
        ("run", "initial_u.preset=foo"),
        ("run", "initial_p.preset=foo"),
        ("run", "force.preset=foo"),
        ("run", "noise.preset=foo"),
        ("run", "noise.preset=none"),
    ],
)
def test_malformed_config_value_exits_2_naming_the_key(tmp_path, capsys, command, override):
    rc = main([command, "--set", override, "--quiet", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert override.split("=")[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, override",
    [
        ("run", "monte_carlo.paths=abc"),
        ("verify", "sweep.eps_values=0.1,0.2"),
        ("mc-energy", "uniqueness.c_check=-1"),
        ("mc-moment", "monte_carlo.deltas=0"),
        ("uniqueness", "sweep.noise_trace=-1"),
        ("sweep-eps", "initial_u.preset=foo"),
        # the rules that need the cutoff (N = 4) or the horizon (T = 0.01)
        pytest.param(
            "verify", "noise.modes=" + "; ".join(["1,1,1,0.1"] * 33), id="verify-noise.modes=33 terms"
        ),
        ("run", "uniqueness.perturb_mode=5,1,1"),
        ("mc-energy", "uniqueness.perturb_mode=1,1,3"),
        ("uniqueness", "sweep.snapshot_times=0.02"),
        ("run", "sweep.snapshot_times=0.004,0.0041"),
        ("uniqueness", "solver.delta=0"),
        # the one rule that needs the command, with the flag that sets it
        ("mc-moment", "--paths=3"),
        ("mc-energy", "--paths=1"),
    ],
)
def test_malformed_value_of_an_unread_key_exits_2_writing_nothing(tmp_path, capsys, command, override):
    # every key is parsed and range-checked at load, also one the command
    # never reads, and the path count the command needs is checked, before
    # any output is written
    out = tmp_path / "out"
    small = ["--set", "solver.n_modes=4", "--set", "solver.horizon=0.01"]
    if command == "verify":
        small += ["--samples", "2"]
    setting = [override] if override.startswith("--") else ["--set", override]
    rc = main([command, *small, *setting, "--quiet", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert override.split("=")[0] in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("route", ["override", "file"])
def test_removed_quad_order_key_exits_2_naming_it(tmp_path, capsys, route):
    # the step's grid is fixed by the cutoff, so the key that once set the
    # quadrature order is refused, also at a value it used to take
    if route == "override":
        argv = ["--set", "solver.quad_order=40"]
    else:
        cfg = tmp_path / "old.ini"
        cfg.write_text("[solver]\nn_modes = 8\nquad_order = 40\n")
        argv = ["--config", str(cfg)]
    rc = main(["run", *argv, "--quiet", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "quad_order" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("verify", "--samples", "-3"),
        ("verify", "--samples", "0"),
        ("mc-energy", "--workers", "-3"),
        ("sweep-eps", "--workers", "two"),
    ],
)
def test_malformed_flag_exits_2_naming_the_flag(tmp_path, capsys, command, flag, value):
    rc = main([command, flag, value, "--quiet", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert flag in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_mc_moment_subcommand(tmp_path):
    out = tmp_path / "m"
    rc = main(
        ["mc-moment", "--quiet", "--out", str(out),
         "--set", "solver.horizon=0.02", "--set", "solver.n_modes=4",
         "--set", "solver.moment_p=4", "--paths", "8"]
    )
    summary = json.loads((out / "mc_moment.json").read_text())
    # at 8 paths the half-ensemble spread passes its gate at about one seed
    # in four, so this checks how the verdict, the spread and the exit status
    # agree, not the verdict
    assert rc == (0 if summary["pass"] else 1)
    assert summary["pass"] == (summary["relative_spread"] <= summary["stability_tolerance"])
    assert math.isfinite(summary["implied_constant"])
    assert summary["moment_p"] == 4


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_diverged_path_exits_1_with_path_and_step(tmp_path, capsys):
    rc = main(
        ["mc-energy", "--quiet", "--out", str(tmp_path), "--paths", "3",
         "--set", "solver.horizon=0.01", "--set", "noise.trace=1e9"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "path 0 diverged at step 4" in err
    assert "Traceback" not in err
