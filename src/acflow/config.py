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
from .forcing import DeterministicForce, NoiseModel, default_noise, noise_from_modes
from .integrator import SolverConfig, State, project_initial
from .spaces import ConfigurationError, SpectralSpaces

_SOLVER_TYPES = {
    "nu": float,
    "eps": float,
    "delta": float,
    "n_modes": int,
    "dt": float,
    "horizon": float,
    "moment_p": float,
    "seed": int,
}

DEFAULTS: dict[str, dict[str, str]] = {
    "solver": {
        "nu": "0.1",
        "eps": "0.1",
        "delta": "1.0",
        "n_modes": "8",
        "dt": "0.001",
        "horizon": "0.5",
        "moment_p": "2",
        "seed": "12345",
    },
    "force": {"preset": "zero", "modes": ""},
    "noise": {"preset": "default", "modes": "", "trace": "0.01", "n_terms": "8"},
    "initial_u": {"preset": "zero", "modes": ""},
    "initial_p": {"preset": "zero", "modes": ""},
    "monte_carlo": {
        "paths": "200",
        "confidence_z": "3.0",
        "deltas": "0.5,1,2",
        "moment_stability_tol": "0.25",
    },
    "uniqueness": {
        "perturb_mode": "1,1,1",
        "perturb_amplitude": "0.001",
        "c_check": "1.0",
    },
    "sweep": {
        "eps_values": "0.1,0.01,0.001,0.0001",
        "paths": "50",
        "force_modes": "1,1,1,0.4; 2,1,2,0.2",
        "noise_trace": "0.01",
        "snapshot_times": "",
    },
}


@dataclass
class RunSetup:
    solver: SolverConfig
    values: dict[str, str]          # flat "section.key" -> value string
    provenance: dict[str, str]      # flat "section.key" -> default|file|override

    def get(self, key: str) -> str:
        return self.values[key]

    def get_float(self, key: str) -> float:
        return parse_value(key, float, self.values[key])

    def get_int(self, key: str) -> int:
        return parse_value(key, int, self.values[key])

    def float_list(self, key: str) -> list[float]:
        raw = self.values[key]
        return [parse_value(key, float, tok) for tok in raw.split(",") if tok.strip()]


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


def parse_velocity_modes(key: str, raw: str) -> list[tuple[int, int, int, float]]:
    """Parse 'j,k,d,amp; j,k,d,amp; ...' mode entry lists, the value of
    ``key``; a malformed entry is a ConfigurationError naming the key."""
    entries = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ConfigurationError(
                f"{key}: velocity mode entry {chunk!r} must be 'j,k,d,amplitude'"
            )
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
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 4:
            raise ConfigurationError(
                f"{key}: pressure mode entry {chunk!r} must be 'family,j,k,amplitude'"
            )
        j, k = (parse_value(key, int, v) for v in parts[1:3])
        if parts[0] not in ("cs", "sc"):
            raise ConfigurationError(f"{key}: pressure family must be cs or sc, got {parts[0]!r}")
        _check_wavenumbers(key, j, k)
        entries.append((parts[0], j, k, parse_value(key, float, parts[3])))
    return entries


def load_config(path: str | None = None, overrides=()) -> RunSetup:
    """Load defaults, then the file, then key=value overrides (last wins).

    Unknown sections or keys and malformed values are configuration errors
    naming the offending entry; positivity and bound checks are applied when
    the solver block is materialised.
    """
    values: dict[str, str] = {}
    provenance: dict[str, str] = {}
    for section, keys in DEFAULTS.items():
        for key, val in keys.items():
            values[f"{section}.{key}"] = val
            provenance[f"{section}.{key}"] = "default"

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
            if section not in DEFAULTS:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key, val in parser.items(section):
                if key not in DEFAULTS[section]:
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

    solver = _materialise_solver(values)
    return RunSetup(solver=solver, values=values, provenance=provenance)


def _materialise_solver(values: dict[str, str]) -> SolverConfig:
    return SolverConfig(
        **{key: parse_value(f"solver.{key}", typ, values[f"solver.{key}"])
           for key, typ in _SOLVER_TYPES.items()}
    )


def build_force(setup: RunSetup, spaces: SpectralSpaces) -> DeterministicForce:
    modes = setup.get("force.modes").strip()
    preset = setup.get("force.preset").strip()
    if modes:
        entries = parse_velocity_modes("force.modes", modes)
    elif preset == "zero":
        entries = []
    else:
        raise ConfigurationError(f"force.preset must be zero, got {preset!r}")
    return DeterministicForce(spaces.velocity_from_modes(entries).coeffs)


def build_noise(setup: RunSetup, spaces: SpectralSpaces) -> NoiseModel:
    modes = setup.get("noise.modes").strip()
    if modes:
        return noise_from_modes(spaces, parse_velocity_modes("noise.modes", modes))
    preset = setup.get("noise.preset").strip()
    if preset == "default":
        return default_noise(
            spaces,
            trace=setup.get_float("noise.trace"),
            n_terms=setup.get_int("noise.n_terms"),
        )
    if preset in ("zero", "none"):
        return noise_from_modes(spaces, [])
    raise ConfigurationError(f"noise.preset must be default, zero or none, got {preset!r}")


def build_initial(setup: RunSetup, spaces: SpectralSpaces) -> State:
    u_modes = setup.get("initial_u.modes").strip()
    u_spec = parse_velocity_modes("initial_u.modes", u_modes) if u_modes else setup.get("initial_u.preset")
    p_modes = setup.get("initial_p.modes").strip()
    p_spec = parse_pressure_modes("initial_p.modes", p_modes) if p_modes else setup.get("initial_p.preset")
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
