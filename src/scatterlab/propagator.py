"""
Free Schrodinger group e^{it d_xx}, its kernel form, and the leading-term /
remainder split of the dispersive decay estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.fft import fft, ifft

from .spectral import (
    PHYSICAL,
    SPECTRAL,
    ComplexField,
    Grid1D,
    _SQRT_2PI,
    _cis,
    _two_lanes,
    fourier_forward,
    fourier_inverse,
    next_fast_len,
    require_same_grid,
    to_physical,
)

_TWO_PI_LD = np.longdouble("6.283185307179586476925286766559005768")


class FrequencyRangeError(ValueError):
    """Off-grid evaluation points fall outside the resolved frequency band."""


@dataclass(frozen=True)
class LeadingSplit:
    """Exact split e^{it d_xx} phi = leading + remainder at time t."""

    leading: ComplexField
    remainder: ComplexField
    t: float


def free_evolve(field: ComplexField, t: float) -> ComplexField:
    """
    Apply the free group e^{it d_xx}: the spectral multiplier e^{-i t xi^2}.
    Works on either side; the output stays on the input side.
    """
    mult = np.exp(-1j * t * field.grid.xi**2)
    if field.side == SPECTRAL:
        return field.with_samples(field.samples * mult)
    spec = fourier_forward(field)
    return fourier_inverse(spec.with_samples(spec.samples * mult))


def kernel_evolve(field: ComplexField, t: float) -> ComplexField:
    """
    O(N^2) quadrature of the convolution with (4*i*pi*t)^{-1/2} e^{i x^2 / 4t}.
    Independent oracle for free_evolve; not a production path.
    """
    field.require_side(PHYSICAL)
    if t <= 0:
        raise ValueError("kernel_evolve requires t > 0")
    g = field.grid
    if g.N > 512:
        raise ValueError("kernel_evolve is limited to N <= 512")
    diff = g.x[:, None] - g.x[None, :]
    kernel = (4j * np.pi * t) ** (-0.5) * np.exp(1j * diff**2 / (4.0 * t))
    return ComplexField(g, g.dx * (kernel @ field.samples), PHYSICAL)


def _unit_phase(scale: np.longdouble, index: np.ndarray) -> np.ndarray:
    """e^{i * scale * index} with the angle reduced mod 2*pi in extended
    precision; keeps chirp phases accurate for index as large as N^2."""
    angle = scale * index.astype(np.longdouble)
    # reduced in place: one extended-precision temporary fewer
    return _cis(np.mod(angle, _TWO_PI_LD, out=angle).astype(np.float64))


def _linear_phase(scale: np.longdouble, count: int) -> np.ndarray:
    """e^{i * scale * k} for k = 0 .. count-1, as the outer product of two
    _unit_phase tables of about sqrt(count) entries: k = a*block + b takes
    the coarse phase of a*block times the fine phase of b, so each entry is
    within a few ulp of _unit_phase(scale, arange(count))."""
    block = int(np.ceil(np.sqrt(count)))
    coarse = _unit_phase(scale, np.arange(0, count, block))
    return np.multiply.outer(coarse, _unit_phase(scale, np.arange(block))).ravel()[:count]


class _BluesteinPlan(NamedTuple):
    """Everything of a chirp transform that depends only on the ray geometry,
    with theta = dx * dxi; the arrays are read-only because one plan serves
    every field of a call."""

    kernel_hat: np.ndarray  # FFT of the chirp e^{i theta s^2 / 2}, s = 1-n .. m-1
    in_phase: np.ndarray  # e^{-i dx xi0 j} e^{-i theta j^2 / 2}
    out_phase: np.ndarray  # (dx / sqrt(2 pi)) e^{-i x0 xi_k} e^{-i theta k^2 / 2}


def _bluestein_plan(n: int, x0: float, dx: float, xi0: float, dxi: float, m: int) -> _BluesteinPlan:
    """Chirps for n sources x_j = x0 + j*dx and m targets xi_k = xi0 + k*dxi.
    The chirp depends on |s| only, so one quadratic table over
    0 .. max(n, m)-1 gives the kernel and, conjugated, the source and target
    chirps.  The convolution has the fast length L >= n + m - 1, the
    kernel's span: output p sums phi_j kernel[(p - j) mod L], and for the
    kept p = n-1 .. n+m-2 every p - j lies in 0 .. n+m-2, so none wraps."""
    ld = np.longdouble
    half = _unit_phase(ld(dx) * ld(dxi) / 2, np.arange(max(n, m)) ** 2)
    buf = np.zeros(next_fast_len(n + m - 1), dtype=np.complex128)
    buf[: n - 1] = half[n - 1 : 0 : -1]
    buf[n - 1 : n - 1 + m] = half[:m]
    kernel_hat = fft(buf, out=buf)
    chirp = np.conjugate(half, out=half)
    in_phase = _linear_phase(-ld(dx) * ld(xi0), n)
    in_phase *= chirp[:n]
    out_phase = _linear_phase(-ld(x0) * ld(dxi), m)
    out_phase *= chirp[:m]
    out_phase *= (dx / _SQRT_2PI) * _unit_phase(-ld(x0) * ld(xi0), np.ones(1, int))
    plan = _BluesteinPlan(kernel_hat=kernel_hat, in_phase=in_phase, out_phase=out_phase)
    for arr in plan:
        arr.flags.writeable = False
    return plan


def _apply_plan(plan: _BluesteinPlan, samples: list, buf: np.ndarray, rows: list) -> None:
    """Write each phi's row, out_phase * ifft(fft(phi * in_phase, L) *
    kernel_hat)[n-1 : n-1+m], into rows; the transforms overwrite buf."""
    n = plan.in_phase.size
    for phi, row in zip(samples, rows):
        np.multiply(phi, plan.in_phase, out=buf[:n])
        buf[n:] = 0
        conv = fft(buf, out=buf)
        conv *= plan.kernel_hat
        conv = ifft(conv, out=conv)
        np.multiply(plan.out_phase, conv[n - 1 : n - 1 + row.size], out=row)


def spectrum_at(fields: Sequence[ComplexField], xi0: float, dxi: float, m: int) -> list[np.ndarray]:
    """
    Evaluate each field's transform at the m frequencies xi0 + k*dxi,
    k = 0 .. m-1: for a physical field its normalized Fourier transform, for
    a spectral field the band-limited (trigonometric) interpolant of the
    samples.  xi0 and dxi may be extended-precision scalars, as the rays'
    geometry x/2t is; the plan reduces every phase in extended precision.
    The fields share one grid and one Bluestein plan; each row is bitwise
    the value the field gives alone.  The sum computed is
    (dx/sqrt(2*pi)) * sum_j phi_j e^{-i x_j xi}, in O((N+m) log(N+m)) per
    row, through a chirp convolution of fast length L >= N + m - 1.  This
    thread builds the plan; then the rows alternate between the two lanes of
    spectral._two_lanes, each lane in its own buffer.  Buffers and rows are
    allocated on this thread: glibc gives the worker a malloc arena of its
    own, which cannot reuse memory freed here.
    """
    fields = list(fields)
    if not (fields and m >= 1 and np.isfinite(xi0) and np.isfinite(dxi)):
        raise ValueError("spectrum_at needs a field, a finite start and step, and m >= 1 targets")
    g = require_same_grid(*fields)
    samples = [to_physical(f).samples for f in fields]
    plan = _bluestein_plan(g.N, float(g.x[0]), g.dx, xi0, dxi, m)
    # one buffer per busy lane: a single field leaves the worker idle
    bufs = [np.empty_like(plan.kernel_hat) for _ in samples[:2]]
    rows = [np.empty(m, dtype=np.complex128) for _ in samples]
    _two_lanes(_apply_plan, (plan, samples[::2], bufs[0], rows[::2]), (plan, samples[1::2], bufs[-1], rows[1::2]))
    return rows


def required_points_for_split(L: float, t: float) -> int:
    """Smallest even N whose frequency grid covers the ray points x/(2t)."""
    n = int(np.ceil(L * L / (4.0 * np.pi * t))) + 2
    return n + (n % 2)


def _check_rays(grid: Grid1D, t: float) -> None:
    """FrequencyRangeError if a ray x/2t of the grid's nodes lies past the
    band the grid resolves; the widest is the ray of x_0 = -L/2."""
    usable = float(grid.xi[-1])  # positive band edge; tighter than the negative one
    needed = grid.L / (4.0 * t)
    if needed > usable:
        raise FrequencyRangeError(
            f"ray evaluation needs |xi| <= {needed:.6g} but the grid resolves only "
            f"{usable:.6g}; enlarge N to >= {required_points_for_split(grid.L, t)} "
            f"(or reduce L)"
        )


def leading_split(field: ComplexField, t: float) -> LeadingSplit:
    """
    Split the freely evolved field into (2it)^{-1/2} e^{i x^2/4t} phihat(x/2t)
    plus a remainder.  The split is exact by construction; the remainder is
    the dispersive correction whose max norm decays faster than t^{-1/2}.
    """
    if t < 1.0:
        raise ValueError("leading_split requires t >= 1")
    phys = to_physical(field)
    g = phys.grid
    _check_rays(g, t)
    two_t = 2 * np.longdouble(t)
    (hat_vals,) = spectrum_at([phys], g.x[0] / two_t, g.dx / two_t, g.N)
    prefactor = (2j * t) ** (-0.5)
    lead = prefactor * np.exp(1j * g.x**2 / (4.0 * t)) * hat_vals
    evolved = free_evolve(phys, t)
    remainder = evolved.samples - lead
    return LeadingSplit(
        leading=ComplexField(g, lead, PHYSICAL),
        remainder=ComplexField(g, remainder, PHYSICAL),
        t=t,
    )


def phase_difference_bound_holds(x: float, beta: float) -> bool:
    """
    Check |e^{ix} - 1| = 2|sin(x/2)| against the fractional bound 2|x|^beta
    for |x| <= 1, and against the trivial bound 2 otherwise.
    """
    if not (0.0 < beta < 0.25):
        raise ValueError("beta must lie in (0, 1/4)")
    lhs = abs(np.exp(1j * x) - 1.0)
    if abs(x) <= 1.0:
        return bool(lhs <= 2.0 * abs(x) ** beta)
    return bool(lhs <= 2.0)
