"""Configuration files, overrides, provenance and run manifests.

The config grammar is flat INI-style ``key = value`` sections, chosen so
experiment records diff cleanly.  Every resolved value carries a provenance
tag (default / file / override) that is echoed into the run manifest, and the
manifest digest is embedded in the first bytes of every output file.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .eps_limit import EpsSweepPlan
from .forcing import NoiseModel, default_noise, noise_from_modes
from .integrator import PRESSURE_PRESETS, VELOCITY_PRESETS, SolverConfig, State, project_initial
from .spaces import ConfigurationError, SpectralSpaces


@dataclass
class RunSetup:
    """A loaded configuration: each key's value string, as the manifest
    records it, and its provenance; its parsed value, ``setup[key]``; and
    the solver and sweep plan built from those values."""

    solver: SolverConfig
    sweep: EpsSweepPlan
    values: dict[str, str]          # flat "section.key" -> value string
    provenance: dict[str, str]      # flat "section.key" -> default|file|override
    parsed: dict[str, object]       # flat "section.key" -> parsed value

    def __getitem__(self, key: str):
        return self.parsed[key]


def parse_value(key: str, typ: type, raw: str):
    """``typ(raw)``; a malformed value, or a float's nan or inf, is a
    ConfigurationError naming the key."""
    try:
        value = typ(raw)
    except ValueError:
        value = None
    if value is None or (typ is float and not math.isfinite(value)):
        kind = "an integer" if typ is int else "a finite number"
        raise ConfigurationError(f"{key} must be {kind}, got {raw!r}")
    return value


def _check_wavenumbers(key: str, j: int, k: int) -> None:
    # a wavenumber above the cutoff is dropped later, as the L2 projection
    # onto the span; one below 1 names no mode at all
    if j < 1 or k < 1:
        raise ConfigurationError(f"{key}: mode wavenumbers j, k must be at least 1, got ({j}, {k})")


def _mode_parts(key: str, raw: str, form: str) -> list[list[str]]:
    """The parts of each ';'-separated entry of ``raw``, the value of
    ``key``: four comma-separated ones, as ``form`` names them."""
    entries = [[p.strip() for p in chunk.split(",")] for chunk in raw.split(";") if chunk.strip()]
    for parts in entries:
        if len(parts) != 4:
            raise ConfigurationError(f"{key}: mode entry {','.join(parts)!r} must be '{form}'")
    return entries


def parse_velocity_modes(key: str, raw: str) -> list[tuple[int, int, int, float]]:
    """Parse 'j,k,d,amp; j,k,d,amp; ...' mode entry lists, the value of
    ``key``; a malformed entry is a ConfigurationError naming the key."""
    entries = []
    for parts in _mode_parts(key, raw, "j,k,d,amplitude"):
        j, k, d = (parse_value(key, int, v) for v in parts[:3])
        if d not in (1, 2):
            raise ConfigurationError(f"{key}: velocity component must be 1 or 2, got {d}")
        _check_wavenumbers(key, j, k)
        entries.append((j, k, d, parse_value(key, float, parts[3])))
    return entries


def parse_pressure_modes(key: str, raw: str) -> list[tuple[str, int, int, float]]:
    """Parse 'family,j,k,amp; ...' with family cs or sc, the value of
    ``key``; a malformed entry is a ConfigurationError naming the key."""
    entries = []
    for parts in _mode_parts(key, raw, "family,j,k,amplitude"):
        j, k = (parse_value(key, int, v) for v in parts[1:3])
        if parts[0] not in ("cs", "sc"):
            raise ConfigurationError(f"{key}: pressure family must be cs or sc, got {parts[0]!r}")
        _check_wavenumbers(key, j, k)
        entries.append((parts[0], j, k, parse_value(key, float, parts[3])))
    return entries


def _number(typ: type, nonnegative: bool = False):
    """The parser of one number of type ``typ``, which refuses a negative
    one when ``nonnegative``."""

    def parse(key: str, raw: str):
        value = parse_value(key, typ, raw)
        if nonnegative and value < 0:
            raise ConfigurationError(f"{key} must be nonnegative, got {raw}")
        return value

    return parse


def _numbers(key: str, raw: str) -> tuple[float, ...]:
    """Comma-separated finite numbers; blank entries are skipped."""
    return tuple(parse_value(key, float, tok) for tok in raw.split(",") if tok.strip())


def _weight_rates(key: str, raw: str) -> tuple[float, ...]:
    rates = _numbers(key, raw)
    if not rates or min(rates) <= 0:
        raise ConfigurationError(f"{key} must list positive weight rates, got {raw!r}")
    return rates


def _mode_triple(key: str, raw: str) -> tuple[int, int, int]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ConfigurationError(f"{key} must be 'j,k,d'")
    return tuple(parse_value(key, int, v) for v in parts)


def _choice(*names: str):
    """The parser of one of ``names``."""

    def parse(key: str, raw: str) -> str:
        if raw not in names:
            raise ConfigurationError(f"{key} must be one of {', '.join(names)}, got {raw!r}")
        return raw

    return parse


# every key of every section: its default value string, which the manifest
# records as written, and its parser, called with the key and a value string
SCHEMA: dict[str, dict[str, tuple]] = {
    "solver": {
        "nu": ("0.1", _number(float)),
        "eps": ("0.1", _number(float)),
        "delta": ("1.0", _number(float)),
        "n_modes": ("8", _number(int)),
        "dt": ("0.001", _number(float)),
        "horizon": ("0.5", _number(float)),
        "moment_p": ("2", _number(float)),
        "seed": ("12345", _number(int)),
    },
    "force": {"preset": ("zero", _choice("zero")), "modes": ("", parse_velocity_modes)},
    "noise": {
        "preset": ("default", _choice("default", "zero")),
        "modes": ("", parse_velocity_modes),
        "trace": ("0.01", _number(float, nonnegative=True)),
        "n_terms": ("8", _number(int, nonnegative=True)),
    },
    "initial_u": {"preset": ("zero", _choice(*VELOCITY_PRESETS)), "modes": ("", parse_velocity_modes)},
    "initial_p": {"preset": ("zero", _choice(*PRESSURE_PRESETS)), "modes": ("", parse_pressure_modes)},
    "monte_carlo": {
        "paths": ("200", _number(int)),
        "confidence_z": ("3.0", _number(float, nonnegative=True)),
        "deltas": ("0.5,1,2", _weight_rates),
        "moment_stability_tol": ("0.25", _number(float, nonnegative=True)),
    },
    "uniqueness": {
        "perturb_mode": ("1,1,1", _mode_triple),
        "perturb_amplitude": ("0.001", _number(float)),
        "c_check": ("1.0", _number(float, nonnegative=True)),
    },
    "sweep": {
        "eps_values": ("0.1,0.01,0.001,0.0001", _numbers),
        "paths": ("50", _number(int)),
        "force_modes": ("1,1,1,0.4; 2,1,2,0.2", parse_velocity_modes),
        "noise_trace": ("0.01", _number(float)),
        "snapshot_times": ("", _numbers),
    },
}


def load_config(path: str | None = None, overrides=()) -> RunSetup:
    """Load defaults, then the file, then key=value overrides (last wins),
    and parse every key, whichever a command reads.

    Unknown sections or keys and malformed values are configuration errors
    naming the offending entry, as are the range checks of the solver and
    the sweep plan, which are built here, and those that need the cutoff or
    the horizon.
    """
    values = {f"{s}.{k}": spec[0] for s, keys in SCHEMA.items() for k, spec in keys.items()}
    provenance = dict.fromkeys(values, "default")

    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigurationError(f"config parse error: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, val in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigurationError(
                        f"unknown key {key!r} in section [{section}]"
                    )
                values[f"{section}.{key}"] = val
                provenance[f"{section}.{key}"] = "file"

    for item in overrides:
        if "=" not in item:
            raise ConfigurationError(
                f"override {item!r} must look like section.key=value"
            )
        key, val = item.split("=", 1)
        key = key.strip()
        if key not in values:
            raise ConfigurationError(f"override targets unknown key {key!r}")
        values[key] = val.strip()
        provenance[key] = "override"

    parsed = {}
    for key, raw in values.items():
        section, name = key.split(".")
        parsed[key] = SCHEMA[section][name][1](key, raw)
    solver = SolverConfig(**{name: parsed[f"solver.{name}"] for name in SCHEMA["solver"]})
    sweep = EpsSweepPlan(
        eps_values=parsed["sweep.eps_values"],
        base=solver,
        n_paths=parsed["sweep.paths"],
        force_modes=tuple(parsed["sweep.force_modes"]),
        noise_trace=parsed["sweep.noise_trace"],
        snapshot_times=tuple(parsed["sweep.snapshot_times"]),
    )
    _check_against_solver(parsed, solver)
    return RunSetup(solver, sweep, values, provenance, parsed)


def _check_against_solver(parsed: dict, solver: SolverConfig) -> None:
    """The ranges that need the cutoff N or the horizon T: at most 2N^2
    noise terms, a perturbed mode within N, and snapshot times in [0, T],
    no two on the same step."""
    n, terms = solver.n_modes, len(parsed["noise.modes"])
    if terms > 2 * n * n:
        raise ConfigurationError(f"noise.modes: {terms} noise terms exceed the {2 * n * n}-dimensional space")
    j, k, d = parsed["uniqueness.perturb_mode"]
    if not (1 <= j <= n and 1 <= k <= n and d in (1, 2)):
        raise ConfigurationError(f"uniqueness.perturb_mode: velocity mode ({j},{k},{d}) is not within N = {n}")
    steps = {}
    for t in parsed["sweep.snapshot_times"]:
        m = round(t / solver.dt)
        if not 0 <= t <= solver.horizon:
            raise ConfigurationError(f"sweep.snapshot_times: {t:g} lies outside [0, {solver.horizon:g}]")
        if m in steps:
            raise ConfigurationError(
                f"sweep.snapshot_times: {steps[m]:g} and {t:g} fall on the same step {m}"
            )
        steps[m] = t


def build_force(setup: RunSetup, spaces: SpectralSpaces) -> np.ndarray:
    # the one preset, zero, has no modes
    return spaces.velocity_from_modes(setup["force.modes"])


def build_noise(setup: RunSetup, spaces: SpectralSpaces) -> NoiseModel:
    if setup["noise.modes"] or setup["noise.preset"] == "zero":
        return noise_from_modes(spaces, setup["noise.modes"])
    return default_noise(spaces, setup["noise.trace"], setup["noise.n_terms"])


def build_initial(setup: RunSetup, spaces: SpectralSpaces) -> State:
    u_spec = setup["initial_u.modes"] or setup["initial_u.preset"]
    p_spec = setup["initial_p.modes"] or setup["initial_p.preset"]
    return project_initial(spaces, u_spec, p_spec)


# -- manifests and deterministic output writing -----------------------------------


@dataclass
class RunManifest:
    """Provenance record for one invocation; its digest keys every output."""

    command: str
    setup: RunSetup
    timestamp: str = ""
    outputs: dict[str, str] = field(default_factory=dict)

    def digest(self) -> str:
        payload = {
            "version": __version__,
            "command": self.command,
            "seed": self.setup.solver.seed,
            "config": self.setup.values,
        }
        canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        body = {
            "version": __version__,
            "command": self.command,
            "seed": self.setup.solver.seed,
            "config": self.setup.values,
            "provenance": self.setup.provenance,
            "digest": self.digest(),
            "timestamp": self.timestamp,
            "outputs": self.outputs,
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"


def format_number(x) -> str:
    """Shortest round-trip decimal form, fixed across platforms."""
    if type(x) is float:  # most cells: PathRecord.csv_rows hands out Python floats
        return repr(x)
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, columns, rows, digest: str) -> str:
    """Write a CSV with the manifest digest comment header, LF endings and
    shortest round-trip numerics, a block of lines at a time, so that the
    text of a long table is never held whole.  Returns the file's sha256."""
    sha = hashlib.sha256()
    with open(path, "wb") as fh:

        def flush(lines):
            data = ("\n".join(lines) + "\n").encode("utf-8")
            sha.update(data)
            fh.write(data)

        lines = [f"# manifest={digest}", ",".join(columns)]
        for row in rows:
            lines.append(",".join(map(format_number, row)))
            if len(lines) == 1024:
                flush(lines)
                lines = []
        if lines:
            flush(lines)
    return sha.hexdigest()


def write_json_report(path, obj: dict, digest: str) -> str:
    body = dict(obj)
    body["manifest"] = digest
    data = (json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
