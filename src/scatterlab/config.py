"""
Plain-text experiment configuration: one `section.key = value` per line,
`#` comments (at the start of a line or after whitespace, so a value such as
`runs/#3` keeps its `#`).  Exact key set; unknown or repeated keys and
non-finite numbers are a hard error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .solver import check_domain_for_horizon, initial_pair
from .spectral import AnalysisParams, Grid1D, norm_Linf

# maximum of dt * max(|u|^2, |v|^2) allowed at t = 1
DT_SAFETY = 1e-3

DATA_SHAPES = ("gaussian", "sech", "modulated")

_COMMENT = re.compile(r"(?:^|\s)#.*")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


_SPEC = {
    "grid.L": float,
    "grid.N": int,
    "solver.dt": float,
    "solver.t_end": float,
    "schedule.ratio": float,
    "data.shape": str,
    "data.epsilon": float,
    "data.width": float,
    "data.carrier": float,
    "analysis.alpha": float,
    "analysis.delta": float,
    "analysis.beta": float,
    "analysis.n": int,
    "io.outdir": str,
    "io.save_snapshots": bool,
    "io.seed": int,
}

_REQUIRED = (
    "grid.L",
    "grid.N",
    "solver.dt",
    "solver.t_end",
    "data.shape",
    "data.epsilon",
    "data.width",
    "analysis.alpha",
    "analysis.delta",
    "analysis.beta",
    "analysis.n",
)

_DEFAULTS = {
    "schedule.ratio": 2.0**0.25,
    "data.carrier": 0.0,
    "io.outdir": "out",
    "io.save_snapshots": True,
    "io.seed": 12345,
}


@dataclass(frozen=True)
class ExperimentConfig:
    grid_L: float
    grid_N: int
    dt: float
    t_end: float
    schedule_ratio: float
    shape: str
    epsilon: float
    width: float
    carrier: float
    alpha: float
    delta: float
    beta: float
    n: int
    outdir: str
    save_snapshots: bool
    seed: int


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: cannot parse {raw!r} as a boolean")


def parse_config(path) -> ExperimentConfig:
    text = Path(path).read_text()
    values: dict[str, object] = dict(_DEFAULTS)
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub("", line, count=1).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _SPEC:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate config key {key!r} (first set on line {first_line[key]})"
            )
        first_line[key] = lineno
        kind = _SPEC[key]
        try:
            if kind is bool:
                values[key] = _parse_bool(raw, key)
            else:
                values[key] = kind(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc
        if kind is float and not math.isfinite(values[key]):
            raise ConfigError(f"key {key!r}: {raw!r} is not finite")
    missing = [k for k in _REQUIRED if k not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    shape = str(values["data.shape"])
    if shape not in DATA_SHAPES:
        raise ConfigError(f"data.shape must be one of {DATA_SHAPES}, got {shape!r}")
    return ExperimentConfig(
        grid_L=float(values["grid.L"]),
        grid_N=int(values["grid.N"]),
        dt=float(values["solver.dt"]),
        t_end=float(values["solver.t_end"]),
        schedule_ratio=float(values["schedule.ratio"]),
        shape=shape,
        epsilon=float(values["data.epsilon"]),
        width=float(values["data.width"]),
        carrier=float(values["data.carrier"]),
        alpha=float(values["analysis.alpha"]),
        delta=float(values["analysis.delta"]),
        beta=float(values["analysis.beta"]),
        n=int(values["analysis.n"]),
        outdir=str(values["io.outdir"]),
        save_snapshots=bool(values["io.save_snapshots"]),
        seed=int(values["io.seed"]),
    )


def build_experiment(cfg: ExperimentConfig):
    """
    Materialize and validate a config: grid, analysis parameters, and the
    initial pair.  Violations of the parameter window, the domain sizing
    rule, or the dt safety rule are configuration errors.
    """
    try:
        grid = Grid1D(L=cfg.grid_L, N=cfg.grid_N)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        params = AnalysisParams.make(
            alpha=cfg.alpha, delta=cfg.delta, beta=cfg.beta, n=cfg.n, epsilon=cfg.epsilon
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.t_end <= 1.0:
        raise ConfigError("solver.t_end must exceed 1")
    if cfg.dt <= 0:
        raise ConfigError("solver.dt must be positive")
    if cfg.schedule_ratio <= 1.0:
        raise ConfigError("schedule.ratio must exceed 1")
    try:
        u1, v1 = initial_pair(grid, cfg.shape, cfg.epsilon, cfg.width, cfg.carrier)
        check_domain_for_horizon(u1, v1, cfg.t_end)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    intensity = max(norm_Linf(u1), norm_Linf(v1)) ** 2
    if cfg.dt * intensity > DT_SAFETY * (1 + 1e-12):
        raise ConfigError(
            f"solver.dt = {cfg.dt:.6g} is too large: dt * max intensity = "
            f"{cfg.dt * intensity:.3e} exceeds {DT_SAFETY:.0e}"
        )
    return grid, params, u1, v1
