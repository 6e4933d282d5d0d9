"""
Periodic grid, normalized Fourier transform, and the norm family used by the
long-time analysis.

The transform convention is the symmetric one,

    F[phi](xi) = (1/sqrt(2*pi)) * integral e^{-i x xi} phi(x) dx,

discretized on a uniform grid over [-L/2, L/2) so that the discrete frequency
values are physical frequencies (monotone order, -N/2 .. N/2-1 in units of
2*pi/L).  All types are immutable after construction and all operations are
pure, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
# only complex input goes through scipy.fft: on it scipy is bitwise numpy's
# FFT, whereas its real-input path differs by round-off
from scipy.fft import fft, fftshift, ifft, ifftshift

PHYSICAL = "physical"
SPECTRAL = "spectral"

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# relative size of transform round-off: a difference of two fields that agree
# in exact arithmetic stays below 2e-14 of their peak up to N = 2^18
_ROUNDOFF = 1e-12


class SideMismatchError(ValueError):
    """An operation received a field on the wrong side (physical vs spectral)."""


class GridMismatchError(ValueError):
    """Fields living on different grids were combined."""


class EdgeMassWarning(UserWarning):
    """A weighted norm was requested for a field with mass at the domain edge."""


@dataclass(frozen=True)
class Grid1D:
    """
    Uniform periodic grid standing in for the real line.

    Nodes are x_j = -L/2 + j*dx with dx = L/N; the dual frequencies are
    xi_k = 2*pi*k/L for k = -N/2 .. N/2-1.  N must be even and at least 8.
    """

    L: float
    N: int

    def __post_init__(self) -> None:
        if not 0 < self.L < np.inf:
            raise ValueError(f"domain length L must be positive and finite, got {self.L!r}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError("point count N must be even and >= 8")
        dx = self.L / self.N
        x = -0.5 * self.L + dx * np.arange(self.N)
        k = np.arange(-self.N // 2, self.N // 2)
        xi = (2.0 * np.pi / self.L) * k
        # (-1)^k phase linking the origin-centred transform to the raw DFT
        sign = np.where(k % 2 == 0, 1.0, -1.0)
        for name, arr in (("x", x), ("xi", xi), ("_sign", sign)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dxi", 2.0 * np.pi / self.L)

    def weight(self, side: str) -> float:
        """Quadrature weight of one sample on the given side."""
        return self.dx if side == PHYSICAL else self.dxi

    def coordinate(self, side: str) -> np.ndarray:
        """Grid coordinate along the given side (x or xi)."""
        return self.x if side == PHYSICAL else self.xi


@dataclass(frozen=True)
class ComplexField:
    """Complex samples of one function on a Grid1D, tagged with its side."""

    grid: Grid1D
    samples: np.ndarray
    side: str

    def __post_init__(self) -> None:
        if self.side not in (PHYSICAL, SPECTRAL):
            raise ValueError(f"unknown side {self.side!r}")
        arr = np.array(self.samples, dtype=np.complex128)
        if arr.shape != (self.grid.N,):
            raise ValueError("sample count must equal grid.N")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def with_samples(self, samples: np.ndarray) -> "ComplexField":
        return ComplexField(self.grid, samples, self.side)

    def require_side(self, side: str) -> None:
        if self.side != side:
            raise SideMismatchError(f"expected a {side} field, got {self.side}")


def require_same_grid(*fields: ComplexField) -> Grid1D:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid is not grid and (f.grid.N != grid.N or f.grid.L != grid.L):
            raise GridMismatchError("fields live on different grids")
    return grid


def fourier_forward(field: ComplexField) -> ComplexField:
    """Symmetric-convention forward transform of a physical field."""
    field.require_side(PHYSICAL)
    g = field.grid
    out = (g.dx / _SQRT_2PI) * fftshift(fft(field.samples)) * g._sign
    return ComplexField(g, out, SPECTRAL)


def fourier_inverse(field: ComplexField) -> ComplexField:
    """Inverse of fourier_forward; round trip is exact to machine precision."""
    field.require_side(SPECTRAL)
    g = field.grid
    out = (g.N * g.dxi / _SQRT_2PI) * ifft(ifftshift(field.samples * g._sign))
    return ComplexField(g, out, PHYSICAL)


def to_physical(field: ComplexField) -> ComplexField:
    return field if field.side == PHYSICAL else fourier_inverse(field)


def to_spectral(field: ComplexField) -> ComplexField:
    return field if field.side == SPECTRAL else fourier_forward(field)


def _dual_transform(field: ComplexField) -> ComplexField:
    return fourier_forward(field) if field.side == PHYSICAL else fourier_inverse(field)


def derivative(field: ComplexField, order: int = 1) -> ComplexField:
    """
    Spectral derivative along the field's own axis (d/dx for physical fields,
    d/dxi for spectral ones).  The multiplier at the single unpaired dual node
    (the Nyquist frequency, resp. the -L/2 endpoint) is set to zero so that
    derivatives of real fields stay real.
    """
    if order < 0:
        raise ValueError("derivative order must be >= 0")
    if order == 0:
        return field
    dual = _dual_transform(field)
    coord = dual.grid.coordinate(dual.side)
    if field.side == PHYSICAL:
        mult = (1j * coord) ** order
    else:
        mult = (-1j * coord) ** order
    mult = mult.copy()
    mult[0] = 0.0  # unpaired endpoint of the monotone layout
    out = dual.with_samples(dual.samples * mult)
    return _dual_transform(out)


def norm_L2(field: ComplexField) -> float:
    w = field.grid.weight(field.side)
    return float(np.sqrt(w * np.sum(np.abs(field.samples) ** 2)))


def norm_Linf(field: ComplexField) -> float:
    return float(np.max(np.abs(field.samples)))


def norm_L1(field: ComplexField) -> float:
    w = field.grid.weight(field.side)
    return float(w * np.sum(np.abs(field.samples)))


def _weighted_l2_sum(mag2: np.ndarray, coord: np.ndarray, w: float, n: int) -> float:
    """sum_{i=0..n} sqrt(w * sum(coord^{2i} * mag2)), the loop shared by the
    derivative- and weight-counting Sobolev norms."""
    total = 0.0
    weight = np.ones_like(coord)
    for _ in range(n + 1):
        total += float(np.sqrt(w * np.sum(weight**2 * mag2)))
        weight = weight * coord
    return total


def norm_Hn0(field: ComplexField, n: int) -> float:
    """
    Derivative-counting Sobolev norm of the underlying function:
    sum_{i=0..n} ||d^i phi||_L2 computed by multiplying its spectrum by
    (i xi)^i.  A physical field is phi itself; a spectral field is taken to
    be phi's spectrum, so the multiplier acts diagonally on the samples.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    spec = to_spectral(field)
    w = spec.grid.dxi
    coord = np.abs(spec.grid.xi).copy()
    coord[0] = 0.0  # Nyquist derivative multiplier is zeroed
    return _weighted_l2_sum(np.abs(spec.samples) ** 2, coord, w, n)


def norm_H0n(field: ComplexField, n: int, scale: float | None = None) -> float:
    """
    Weight-counting Sobolev norm: sum_{i=0..n} of the L2 norm of coord^i times
    the field.  Warns when the field carries mass at the domain edge, where
    polynomial weights on a periodic box stop meaning anything.  A field that
    is a difference from something of magnitude `scale` does not warn when
    its peak is round-off of that scale: its edge is noise.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    mag = np.abs(field.samples)
    peak = float(np.max(mag)) if mag.size else 0.0
    floor = 0.0 if scale is None else _ROUNDOFF * scale
    if peak > floor and max(mag[0], mag[-1]) > 1e-8 * peak:
        warnings.warn(
            "field amplitude at the domain edge exceeds 1e-8 of its peak; "
            "weighted norms are unreliable",
            EdgeMassWarning,
            stacklevel=2,
        )
    w = field.grid.weight(field.side)
    return _weighted_l2_sum(mag**2, np.abs(field.grid.coordinate(field.side)), w, n)


@dataclass(frozen=True)
class AnalysisParams:
    """
    Exponent bookkeeping for the long-time estimates.

    The window 0 < 4*alpha < delta < 1/4 is required, beta lies in (0, 1/4),
    and nu = 1/4 - delta + 4*alpha must hold exactly.
    """

    alpha: float
    delta: float
    beta: float
    nu: float
    n: int
    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 < 4.0 * self.alpha < self.delta < 0.25):
            raise ValueError("parameters must satisfy 0 < 4*alpha < delta < 1/4")
        if not (0.0 < self.beta < 0.25):
            raise ValueError("beta must lie in (0, 1/4)")
        expected_nu = 0.25 - self.delta + 4.0 * self.alpha
        if abs(self.nu - expected_nu) > 1e-14:
            raise ValueError("nu must equal 1/4 - delta + 4*alpha exactly")
        if not (0.0 < self.nu < 0.25):
            raise ValueError("nu must lie in (0, 1/4)")
        if self.n < 0 or int(self.n) != self.n:
            raise ValueError("n must be a nonnegative integer")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")

    @classmethod
    def make(
        cls,
        alpha: float = 0.01,
        delta: float = 0.24,
        beta: float = 0.2,
        n: int = 1,
        epsilon: float = 0.1,
    ) -> "AnalysisParams":
        nu = 0.25 - delta + 4.0 * alpha
        return cls(alpha=alpha, delta=delta, beta=beta, nu=nu, n=int(n), epsilon=epsilon)


def norm_XT_components(
    series: Sequence[tuple[float, ComplexField]], params: AnalysisParams
) -> tuple[float, float, float]:
    """
    The three suprema making up the bootstrap norm over a sampled spectral
    time series: sup_t of the max norm, and sup_t of t^-alpha times the
    H^{1,0} and H^{0,2n+1} norms along the frequency axis.  The frequency
    derivative is evaluated through the exchange identity
    ||w_hat||_{H^{1,0}_xi} = ||w||_{H^{0,1}_x}.
    """
    if len(series) == 0:
        raise ValueError("series must be nonempty")
    times = np.array([t for t, _ in series], dtype=float)
    if times[0] < 1.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be increasing and >= 1")
    sup_linf = 0.0
    sup_h10 = 0.0
    sup_h0m = 0.0
    m = 2 * params.n + 1
    for t, f in series:
        f.require_side(SPECTRAL)
        fac = t ** (-params.alpha)
        sup_linf = max(sup_linf, norm_Linf(f))
        sup_h10 = max(sup_h10, fac * norm_H0n(fourier_inverse(f), 1))
        sup_h0m = max(sup_h0m, fac * norm_H0n(f, m))
    return sup_linf, sup_h10, sup_h0m
