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

from .solver import DEFAULT_SCHEDULE_RATIO, check_domain_for_horizon, initial_pair
from .spectral import AnalysisParams, Grid1D, norm_Linf

# maximum of dt * max(|u|^2, |v|^2) allowed at t = 1
DT_SAFETY = 1e-3

DATA_SHAPES = ("gaussian", "sech", "modulated")

_COMMENT = re.compile(r"(?:^|\s)#.*")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# the config key set: key -> (ExperimentConfig field, kind, default); keys
# whose default is _REQUIRED must be set.  Every key maps to one field.
_REQUIRED = object()
_KEYS = {
    "grid.L": ("grid_L", float, _REQUIRED),
    "grid.N": ("grid_N", int, _REQUIRED),
    "solver.dt": ("dt", float, _REQUIRED),
    "solver.t_end": ("t_end", float, _REQUIRED),
    "schedule.ratio": ("schedule_ratio", float, DEFAULT_SCHEDULE_RATIO),
    "data.shape": ("shape", str, _REQUIRED),
    "data.epsilon": ("epsilon", float, _REQUIRED),
    "data.width": ("width", float, _REQUIRED),
    "data.carrier": ("carrier", float, 0.0),
    "analysis.alpha": ("alpha", float, _REQUIRED),
    "analysis.delta": ("delta", float, _REQUIRED),
    "analysis.beta": ("beta", float, _REQUIRED),
    "analysis.n": ("n", int, _REQUIRED),
    "io.outdir": ("outdir", str, "out"),
    "io.save_snapshots": ("save_snapshots", bool, True),
    "io.seed": ("seed", int, 12345),
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values: dict[str, object] = {k: d for k, (_, _, d) in _KEYS.items() if d is not _REQUIRED}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.sub("", line, count=1).strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: duplicate config key {key!r} (first set on line {first_line[key]})"
            )
        first_line[key] = lineno
        kind = _KEYS[key][1]
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
    missing = [k for k in _KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    shape = str(values["data.shape"])
    if shape not in DATA_SHAPES:
        raise ConfigError(f"data.shape must be one of {DATA_SHAPES}, got {shape!r}")
    return ExperimentConfig(**{field: values[key] for key, (field, _, _) in _KEYS.items()})


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
    if cfg.seed < 0:
        raise ConfigError(f"io.seed must be non-negative, got {cfg.seed}")
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
