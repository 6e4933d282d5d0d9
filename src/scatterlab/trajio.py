"""
Trajectory persistence and CSV emission.

Snapshot file layout (all little-endian):

    magic "SCATLAB1" | int64 N | float64 L | int64 snapshot count
    | float64 alpha, delta, beta, nu | int64 n | float64 epsilon
    then per snapshot: float64 t, u samples, v samples,
    each sample as interleaved (re, im) float64.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .spectral import PHYSICAL, AnalysisParams, ComplexField, Grid1D
from .solver import PairState, Trajectory

MAGIC = b"SCATLAB1"
_HEADER = struct.Struct("<8sqdqddddqd")

CSV_HEADER = (
    "t,u_linf,v_linf,wf_limit_diff_linf,wg_limit_diff_linf,"
    "wf_limit_diff_h0n,wg_limit_diff_h0n,u_asym_residual,v_asym_residual,"
    "u_mass,v_mass"
)


class FormatError(ValueError):
    """The file does not follow the snapshot layout."""


def save_trajectory(traj: Trajectory, path) -> None:
    p = traj.params
    header = _HEADER.pack(
        MAGIC,
        traj.grid.N,
        traj.grid.L,
        len(traj.snapshots),
        p.alpha,
        p.delta,
        p.beta,
        p.nu,
        p.n,
        p.epsilon,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for state in traj.snapshots:
            fh.write(struct.pack("<d", state.t))
            fh.write(np.ascontiguousarray(state.u.samples, dtype="<c16").tobytes())
            fh.write(np.ascontiguousarray(state.v.samples, dtype="<c16").tobytes())


def load_trajectory(path, dt: float = float("nan")) -> Trajectory:
    """The trajectory saved at path; its samples are read-only views of the
    file's bytes, which the fields keep without a copy."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError("file too short for a snapshot header")
    magic, n_points, length, count, alpha, delta, beta, nu, order, epsilon = _HEADER.unpack_from(
        raw, 0
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    offset = _HEADER.size
    if count < 1:
        raise FormatError(f"header snapshot count {count} is not positive")
    # checked before N sizes any allocation: the file's length then bounds N
    if len(raw) != offset + count * (8 + 2 * 16 * n_points):
        raise FormatError("file length does not match header N and snapshot count")
    try:
        grid = Grid1D(L=length, N=n_points)
        params = AnalysisParams(alpha=alpha, delta=delta, beta=beta, nu=nu, n=order, epsilon=epsilon)
        snapshots = []
        for _ in range(count):
            (t,) = struct.unpack_from("<d", raw, offset)
            offset += 8
            u = np.frombuffer(raw, dtype="<c16", count=grid.N, offset=offset)
            offset += 16 * grid.N
            v = np.frombuffer(raw, dtype="<c16", count=grid.N, offset=offset)
            offset += 16 * grid.N
            snapshots.append(
                PairState(ComplexField(grid, u, PHYSICAL), ComplexField(grid, v, PHYSICAL), t)
            )
        return Trajectory(grid=grid, params=params, snapshots=tuple(snapshots), dt=dt)
    except ValueError as exc:
        raise FormatError(f"invalid header or snapshot times: {exc}") from exc


def _fmt(value: float) -> str:
    return repr(float(value))


def write_snapshot_csv(path, analysis) -> None:
    """One row per snapshot under the fixed header."""
    a = analysis
    columns = (
        a.times, a.u_linf, a.v_linf, a.wf_diff_linf, a.wg_diff_linf,
        a.wf_diff_h0n, a.wg_diff_h0n, a.asym_u, a.asym_v, a.u_mass, a.v_mass,
    )
    write_series_csv(path, CSV_HEADER, zip(*columns))


def write_series_csv(path, header: str, rows: Iterable[Iterable[float]]) -> None:
    """Floats as shortest round-trip decimals, so identical runs emit
    identical bytes."""
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
