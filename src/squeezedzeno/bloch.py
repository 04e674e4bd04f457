"""Master equation and Bloch dynamics of the driven atom.

The reduced dynamics combines a detuning rotation, thermal-type
dissipators weighted by N~ and N~ + 1, phase-sensitive squeezing terms
proportional to M~, the coherent drive, and a pair of double-commutator
corrections proportional to beta:

    d rho / dt =
        (i/2) gamma delta [sz, rho]
      + (gamma/2) (N~+1) (2 sm rho sp - sp sm rho - rho sp sm)
      + (gamma/2)  N~    (2 sp rho sm - sm sp rho - rho sm sp)
      - gamma M~  sp rho sp  -  gamma M~* sm rho sm
      - (i/2) Omega [sp + sm, rho]
      + (i/4) ( beta [sp, [sz, rho]] - beta* [sm, [sz, rho]] )

Taking expectation values gives the equivalent Bloch form

    d<sm>/dt = -gamma (1/2 + N~ - i delta) <sm> - gamma M~ <sp>
               + (i/2) Omega <sz>
    d<sz>/dt = i (Omega + beta*) <sm> - i (Omega + beta) <sp>
               - gamma (1 + 2 N~) <sz> - gamma

with <sp> = <sm>*.  Both representations are implemented and checked
against each other.  Two decay parameters summarize the relaxation:

    Gamma_dec = gamma (1/2 + N~ + Re M~)   (symmetric quadrature)
    Gamma_pop = gamma (1 + 2 N~)           (population inversion)

The quadrature sector also carries a cross coupling proportional to
Im M~ + delta; when it vanishes, <sx> decays as a single exponential at
Gamma_dec and the fit oracle below reproduces the analytic value.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .coefficients import DriveParams, EffectiveCoefficients
from .errors import (
    DegenerateFitError,
    IllConditionedFitError,
    InvalidParamsError,
    require_finite,
    require_positive_int,
)

_SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID = np.eye(2, dtype=complex)

_BALL_TOL = 1e-10


@dataclass(frozen=True)
class BlochState:
    """Expectation-value state (<sigma_->, <sigma_z>).

    The basis is {|e>, |g>}; <sigma_z> = +1 is the excited state.  The
    state must lie in the Bloch ball, |<sigma_->|^2 <= (1 - sz^2)/4, up
    to a small tolerance; violations beyond it are reported as warnings
    since they indicate round-off on the ball's surface, not caller
    error.
    """

    s_minus: complex
    s_z: float

    def __post_init__(self) -> None:
        sm = complex(self.s_minus)
        require_finite("s_minus.real", sm.real)
        require_finite("s_minus.imag", sm.imag)
        sz = require_finite("s_z", self.s_z)
        object.__setattr__(self, "s_minus", sm)
        object.__setattr__(self, "s_z", sz)
        excess = abs(sm) ** 2 - (1.0 - sz * sz) / 4.0
        if excess > _BALL_TOL or abs(sz) > 1.0 + _BALL_TOL:
            warnings.warn(
                f"state outside the Bloch ball by {max(excess, abs(sz) - 1.0):.3g}",
                stacklevel=3,
            )

    @classmethod
    def excited(cls) -> "BlochState":
        return cls(0.0 + 0.0j, 1.0)

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(0.0 + 0.0j, -1.0)

    @classmethod
    def x_polarized(cls, sign: int = +1) -> "BlochState":
        """Pure state along +/- x: <sigma_x> = sign, <sigma_z> = 0."""
        return cls(sign * 0.5 + 0.0j, 0.0)

    def to_density_matrix(self) -> NDArray:
        """The 2x2 density matrix over {|e>, |g>}; <sigma_-> = rho_eg is above the diagonal."""
        return np.array(
            [
                [(1.0 + self.s_z) / 2.0, self.s_minus],
                [np.conj(self.s_minus), (1.0 - self.s_z) / 2.0],
            ],
            dtype=complex,
        )


def _sandwich(a: NDArray, b: NDArray) -> NDArray[np.complex128]:
    # vec(A rho B) = kron(B.T, A) vec(rho) for column stacking
    return np.kron(b.T, a)


def _commutator_super(a: NDArray[np.complex128]) -> NDArray[np.complex128]:
    return _sandwich(a, _ID) - _sandwich(_ID, a)


def build_liouvillian(coeffs: EffectiveCoefficients, drive: DriveParams) -> NDArray:
    """Assemble the full master-equation generator as a 4x4 matrix.

    It acts on the column-stacked vec(rho) = (rho_ee, rho_ge, rho_eg, rho_gg).
    All seven lines of the equation of motion are included: the delta
    rotation, both thermal dissipators, the two squeezing terms, the
    drive commutator, and the beta double commutators.  It reads N~, M~, delta
    and beta alone, an independent check of bloch_generator that inherits their
    cancellation near threshold, where the slow quadrature loses accuracy with N~.
    """
    g = coeffs.gamma
    nt = coeffs.n_tilde
    mt = coeffs.m_tilde
    beta = coeffs.beta
    omega = drive.Omega

    diss_down = (
        2.0 * _sandwich(_SM, _SP) - _sandwich(_SP @ _SM, _ID) - _sandwich(_ID, _SP @ _SM)
    )
    diss_up = (
        2.0 * _sandwich(_SP, _SM) - _sandwich(_SM @ _SP, _ID) - _sandwich(_ID, _SM @ _SP)
    )
    cz = _commutator_super(_SZ)
    return (
        0.5j * g * coeffs.delta * cz
        + 0.5 * g * (nt + 1.0) * diss_down
        + 0.5 * g * nt * diss_up
        - g * mt * _sandwich(_SP, _SP)
        - g * np.conj(mt) * _sandwich(_SM, _SM)
        - 0.5j * omega * _commutator_super(_SP + _SM)
        + 0.25j * (
            beta * (_commutator_super(_SP) @ cz)
            - np.conj(beta) * (_commutator_super(_SM) @ cz)
        )
    )


def bloch_derivative(
    state: BlochState, coeffs: EffectiveCoefficients, drive: DriveParams
) -> tuple[complex, float]:
    """Right-hand side (d<sm>/dt, d<sz>/dt) of the Bloch equations."""
    g = coeffs.gamma
    sm = state.s_minus
    sp = np.conj(sm)
    sz = state.s_z
    d_sm = (
        -g * (0.5 + coeffs.n_tilde - 1j * coeffs.delta) * sm
        - g * coeffs.m_tilde * sp
        + 0.5j * drive.Omega * sz
    )
    d_sz = (
        1j * (drive.Omega + np.conj(coeffs.beta)) * sm
        - 1j * (drive.Omega + coeffs.beta) * sp
        - g * (1.0 + 2.0 * coeffs.n_tilde) * sz
        - g
    )
    return complex(d_sm), float(d_sz.real)


def bloch_generator(
    coeffs: EffectiveCoefficients, drive: DriveParams
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Real affine form d(u, w, z)/dt = A (u, w, z) + b.

    Here u = 2 Re<sm>, w = 2 Im<sm>, z = <sz>.  Useful for steady
    states, eigenvalue checks, and the "bloch" propagation path.  The
    quadrature block takes the record's stored Gamma_dec and rotation
    delta - Im M~; its other two entries, Gamma_pop - Gamma_dec and
    gamma (delta + Im M~), are sums that do not cancel.
    """
    g, g_dec, g_pop = coeffs.gamma, coeffs.gamma_dec, population_decay_rate(coeffs)
    mat = np.array([
        [-g_dec, -g * (coeffs.delta + coeffs.m_tilde.imag), 0.0],
        [g * coeffs.rotation, -(g_pop - g_dec), drive.Omega],
        [coeffs.beta.imag, -(drive.Omega + coeffs.beta.real), -g_pop],
    ])
    return mat, np.array([0.0, 0.0, -g])


def quadrature_decay_rate(coeffs: EffectiveCoefficients) -> float:
    """Coherence decay constant Gamma_dec = gamma (1/2 + N~ + Re M~) as the record stores it,
    the kernel's value, free of the terms of size 1/mu^2 that N~ and Re M~ each hold."""
    return coeffs.gamma_dec


def population_decay_rate(coeffs: EffectiveCoefficients) -> float:
    """Population decay constant Gamma_pop = gamma (1 + 2 N~)."""
    return coeffs.gamma * (1.0 + 2.0 * coeffs.n_tilde)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the reduced dynamics.

    trace_error is |tr rho - 1| at each sample; identically zero when
    the propagation ran in Bloch (expectation-value) form, since that
    parametrization has no trace degree of freedom.
    """

    t: NDArray[np.float64]
    s_minus: NDArray[np.complex128]
    s_z: NDArray[np.float64]
    trace_error: NDArray[np.float64] = field(repr=False)

    def observable(self, name: str) -> NDArray[np.float64]:
        """Time series of sigma_x, sigma_y or sigma_z."""
        if name == "sigma_x":
            return 2.0 * self.s_minus.real
        if name == "sigma_y":
            return -2.0 * self.s_minus.imag
        if name == "sigma_z":
            return np.asarray(self.s_z, dtype=float)
        raise InvalidParamsError(f"unknown observable {name!r}")

    def __len__(self) -> int:
        return int(self.t.size)


# [13/13] Pade coefficients of exp (Higham, SIAM J. Matrix Anal. Appl. 26, 2005), kept as
# the exact integers: normalized to b0 = 1 they triple the trace drift after long squarings
_PADE13 = (64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
           129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
           40840800, 960960, 16380, 182, 1)
_THETA13 = 5.371920351148152  # largest 1-norm that [13/13] takes without scaling
# largest |G t|_1 that evolve takes, 32 squarings in _expm: beyond it the squarings carry
# the round-off past 1e-6 of the trace, and far beyond it to a zero state, then NaN
_MAX_REACH = _THETA13 * 2.0 ** 32


def _expm(a: NDArray) -> NDArray:
    """exp of each matrix of an (n, k, k) stack by Pade-13 scaling and squaring.

    Each matrix takes its own 2^-s; a zero matrix gives exactly the identity.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a / (2.0 ** s)[:, None, None]
    b, ident = _PADE13, np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    x = np.linalg.solve(v - u, v + u)
    for k in range(int(s.max())):
        sq = s > k
        x[sq] = x[sq] @ x[sq]
    x[norm == 0.0] = ident
    return x


def evolve(
    initial: BlochState,
    coeffs: EffectiveCoefficients,
    drive: DriveParams,
    t_span: tuple[float, float],
    *,
    n_samples: int = 400,
    method: str = "superoperator",
) -> Trajectory:
    """Propagate the dynamics from initial at t_span[0] and sample it at
    n_samples >= 1 uniform times over the finite t_span.

    The generator G is constant in time, so each sample is the exact
    solution exp(G (t - t_span[0])) y0, by a batched numpy Pade-13 scaling
    and squaring (_expm).  Samples are independent, so no error
    accumulates along the grid, and the exponential stays accurate at
    exceptional points of G where an eigendecomposition would not.  A span
    whose |G|_1 (t_span[1] - t_span[0]) passes _MAX_REACH (about 2.3e10)
    raises InvalidParamsError rather than return a state the squarings
    have ruined.

    method "superoperator" propagates vec(rho) under the full 4x4
    generator (default; exposes trace drift as a diagnostic), "bloch" the
    real expectation values (u, w, z, 1) under the homogeneous form
    [[A, b], [0, 0]] of the affine Bloch generator.
    """
    t0, t1 = (require_finite("t_span", v) for v in t_span)
    if not (t1 > t0):
        raise InvalidParamsError(f"t_span end must exceed start, got {t_span}")
    n_samples = require_positive_int("n_samples", n_samples)
    if not isinstance(initial, BlochState):
        raise InvalidParamsError(f"initial must be a BlochState, got {type(initial).__name__}")

    if method == "superoperator":
        gen = build_liouvillian(coeffs, drive)
        y0 = initial.to_density_matrix().reshape(4, order="F")
    elif method == "bloch":
        mat, aff = bloch_generator(coeffs, drive)
        gen = np.zeros((4, 4))
        gen[:3, :3], gen[:3, 3] = mat, aff
        y0 = np.array([2.0 * initial.s_minus.real, 2.0 * initial.s_minus.imag, initial.s_z, 1.0])
    else:
        raise InvalidParamsError(f"unknown method {method!r}")
    # Python floats: an out-of-range span overflows to inf here, without a numpy warning
    reach = float(np.abs(gen).sum(axis=0).max()) * (t1 - t0)
    if not reach <= _MAX_REACH:
        raise InvalidParamsError(f"t_span too long: |G|_1 t = {reach:.3g} exceeds "
                                 f"{_MAX_REACH:.3g}, more than 32 squarings of exp(G t)")

    t = np.linspace(t0, t1, n_samples)
    y = (_expm(gen * (t - t0)[:, None, None]) @ y0).T
    if method == "superoperator":
        # column-major vec(rho) = (rho_ee, rho_ge, rho_eg, rho_gg)
        s_minus = y[2]
        s_z = (y[0] - y[3]).real
        trace_error = np.abs(y[0] + y[3] - 1.0)
    else:
        s_minus = 0.5 * (y[0] + 1j * y[1])
        s_z = y[2]
        trace_error = np.zeros_like(t)

    return Trajectory(t=t, s_minus=s_minus, s_z=s_z, trace_error=trace_error)


@dataclass(frozen=True)
class FitResult:
    """Exponential fit y(t) = amplitude * exp(-rate t) + offset."""

    rate: float
    amplitude: float
    offset: float
    residual: float


# largest rms fit residual, relative to the fitted amplitude, of a single exponential
_RESIDUAL_THRESHOLD = 1e-3
# Levenberg-Marquardt: most steps, and the scaled step below which the fit has converged
_FIT_STEPS, _STEP_TOL = 100, 1e-10


def fit_exponential(t: Sequence[float], y: Sequence[float]) -> FitResult:
    """Least-squares fit of a decaying exponential with offset.

    Levenberg-Marquardt on (rate, amplitude, offset) from a half-life guess, each step
    solved and damped in the parameters scaled by the Jacobian's column norms (so in any
    units of t).  A step is taken if it lowers the residual; once a step would move the
    scaled parameters by at most _STEP_TOL of their norm, it is taken and the fit has converged.

    Raises DegenerateFitError when the signal is constant and
    IllConditionedFitError when the fit does not converge in _FIT_STEPS
    steps (no finite best fit, as for a straight line) or the normalized
    rms residual exceeds _RESIDUAL_THRESHOLD (not a single exponential).
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size or t.size < 4:
        raise InvalidParamsError("need at least 4 matching samples to fit")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise InvalidParamsError("samples to fit must be finite")

    if float(np.max(y) - np.min(y)) <= 1e-13 * float(np.max(np.abs(y))):  # in any units of y
        raise DegenerateFitError("observable is constant; no decay rate to fit")

    c0 = float(y[-1])
    a0 = float(y[0] - c0)
    # crude rate guess from the time to lose half the initial deviation
    dev = np.abs(y - c0)
    half = np.nonzero(dev <= 0.5 * abs(a0))[0]
    if half.size and half[0] > 0:
        r0 = math.log(2.0) / (t[half[0]] - t[0])
    else:
        r0 = 1.0 / max(t[-1] - t[0], 1e-30)

    def residual(p: NDArray) -> NDArray:
        return p[1] * np.exp(-p[0] * t) + p[2] - y

    p, damping = np.array([r0, a0, c0]), 1e-3
    for _ in range(_FIT_STEPS):
        decay = np.exp(-p[0] * t)
        jac = np.column_stack([-p[1] * t * decay, decay, np.ones_like(t)])
        res, norms = residual(p), np.linalg.norm(jac, axis=0)
        scale = np.where(norms > 0.0, norms, 1.0)  # a zero column keeps a zero step
        step = np.linalg.lstsq(np.vstack([jac / scale, math.sqrt(damping) * np.eye(3)]),
                               np.concatenate([-res, np.zeros(3)]), rcond=None)[0] / scale
        if np.linalg.norm(norms * step) <= _STEP_TOL * np.linalg.norm(norms * p):
            p = p + step
            break
        trial = residual(p + step)
        if trial @ trial < res @ res:
            p, damping = p + step, 0.1 * damping
        else:
            damping *= 10.0
    else:
        raise IllConditionedFitError(f"exponential fit did not converge in {_FIT_STEPS} steps")

    rate, amp, off = (float(v) for v in p)
    resid = float(np.sqrt(np.mean(residual(p) ** 2)))
    relative = resid / max(abs(amp), 1e-30)
    if relative > _RESIDUAL_THRESHOLD:
        raise IllConditionedFitError(
            f"fit residual {relative:.3g} of the amplitude exceeds {_RESIDUAL_THRESHOLD:.3g}; "
            f"the signal is not a single exponential")
    return FitResult(rate=rate, amplitude=amp, offset=off, residual=resid)


def fit_decay_rate(trajectory: Trajectory, observable: str = "sigma_x") -> FitResult:
    """Fit one trajectory observable to a decaying exponential."""
    return fit_exponential(trajectory.t, trajectory.observable(observable))
