"""Survival probability, decay times and the discrete bath of a probed level.

The paper reaches its survival probability through the weak value of an
operator A probed at a time t between a pre-selection at t_i and a
post-selection at t_f of a two-level system with splitting omega_A,

    A_w(t) = <psi_f| U(t_f - t) A U(t - t_i) |psi_i>
             / <psi_f| U(t_f - t_i) |psi_i>,

with U(t) = diag(e^{i omega_A t / 2}, e^{-i omega_A t / 2}).  For the
excited-state projector of a level decaying as e^{-Gamma t} that route,
not implemented here, ends in the weak survival probability this module
starts from,

    P_w(t) = e^{-Gamma (t - t_i)}
             (1 - e^{-Gamma (t_f - t)}) / (1 - e^{-Gamma (t_f - t_i)}),

which interpolates between P_w(t_i) = 1 and P_w(t_f) = 0.  Its time
integral defines an effective decay time with the closed form

    tau = 1/Gamma - T / (e^{Gamma T} - 1),    T = t_f - t_i,

both set by the window alone (a MeasurementSchedule), approximated for n
measurements spaced by tau_M = 1/omega_L (T = n/omega_L) as

    tau_approx = 1 / (Gamma + 2 omega_L / n).

Applied to the coherence and population decay constants of the damped
atom, the approximation gives the decoherence and Zeno timescales (the
tau_dec and tau_zeno of analysis.evaluate_regime).  A discrete bath of
2R equispaced modes coupled equally to a reference level (a Davies-type
single-excitation model) is an exactly solvable check of the amplitude
e^{-Gamma t}: at fixed bandwidth its deviation falls to a bandwidth
floor as the spacing shrinks, the first-order part coming from the
omitted ladder level r = 0 (Bixon and Jortner 1968); the spacing itself
sets the recurrence time 2 pi / Delta_E.  Its arrowhead Hamiltonian is
solved through the secular equation, one root per gap of the ladder,
never as a matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import (
    InvalidParamsError,
    OutOfWindowError,
    ResourceLimitError,
    require_finite,
    require_finite_fields,
    require_positive_int,
)

# the default dim_cap of the Davies functions and of the oracle.dim_cap config key
DEFAULT_DIM_CAP = 6000
# pole, offset and weight arrays of a solved Davies model
_Spectrum = tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]


@dataclass(frozen=True)
class MeasurementSchedule:
    """Measurement window [t_i, t_f] of finite, positive length T = t_f - t_i.

    P_w and tau depend on the window alone; from_carrier sizes it from n
    probes spaced by tau_M = 1/omega_L.
    """

    t_i: float
    t_f: float

    def __post_init__(self) -> None:
        require_finite_fields(self, "t_i", "t_f")
        if not 0.0 < self.window < math.inf:
            raise InvalidParamsError(f"t_f - t_i must be finite and > 0, got {self.window}")

    @property
    def window(self) -> float:
        """Total duration T = t_f - t_i."""
        return self.t_f - self.t_i

    @classmethod
    def from_carrier(
        cls, omega_L: float, n: int, t_i: float = 0.0
    ) -> "MeasurementSchedule":
        """Window of n intervals tau_M = 1/omega_L: t_f = t_i + n/omega_L."""
        if require_finite("omega_L", omega_L) <= 0.0:
            raise InvalidParamsError(f"omega_L must be > 0, got {omega_L}")
        return cls(t_i=t_i, t_f=t_i + require_positive_int("n", n) * (1.0 / omega_L))


def weak_survival(Gamma: float, sched: MeasurementSchedule, t: float) -> float:
    """Weak survival probability P_w(t) on the schedule window.

    Strictly decreasing in t for Gamma > 0 with P_w(t_i) = 1 and
    P_w(t_f) = 0 exactly.  Where 1 - e^{-Gamma T} is below the smallest
    normal float it returns the Gamma -> 0 limit e^{-Gamma (t - t_i)} (t_f - t)/T.
    """
    if require_finite("Gamma", Gamma) <= 0.0:
        raise InvalidParamsError(f"Gamma must be > 0, got {Gamma}")
    if not sched.t_i <= require_finite("t", t) <= sched.t_f:
        raise OutOfWindowError(
            f"t = {t} outside the measurement window [{sched.t_i}, {sched.t_f}]"
        )
    # 1 - e^{-x} written as -expm1(-x) to stay accurate for small x
    den = -math.expm1(-Gamma * sched.window)
    if den < sys.float_info.min:
        return math.exp(-Gamma * (t - sched.t_i)) * (sched.t_f - t) / sched.window
    num = -math.expm1(-Gamma * (sched.t_f - t))
    return math.exp(-Gamma * (t - sched.t_i)) * num / den


# Coefficients of the Bernoulli expansion
#   tau / T = 1/2 - g/12 + g^3/720 - g^5/30240 + g^7/1209600 + O(g^9),
# g = Gamma T.  Used below g = 1/4 where the truncation error is < 1e-13
# of tau, beating the cancellation in the closed form near g ~ 1e-6.
_SMALL_G_THRESHOLD = 0.25
_SERIES = ((1, -1.0 / 12.0), (3, 1.0 / 720.0), (5, -1.0 / 30240.0), (7, 1.0 / 1209600.0))


def decay_time_exact(Gamma: float, sched: MeasurementSchedule) -> float:
    """Integral of P_w over the window: tau = 1/Gamma - T/(e^{Gamma T} - 1).

    Continuously extended to Gamma = 0 where tau = T/2.  The small-g
    branch evaluates the series expansion instead of the closed form to
    avoid catastrophic cancellation between the two large terms.  Past
    g = 709, where T/(e^g - 1) is below half an ulp of 1/Gamma and expm1
    would soon overflow, tau is 1/Gamma; for a subnormal Gamma, whose
    inverse can overflow, it is T (1/g - 1/(e^g - 1)).
    """
    if require_finite("Gamma", Gamma) < 0.0:
        raise InvalidParamsError(f"Gamma must be >= 0, got {Gamma}")
    T = sched.window
    g = Gamma * T
    if g < _SMALL_G_THRESHOLD:
        acc = 0.5
        for power, coeff in _SERIES:
            acc += coeff * g**power
        return T * acc
    if g > 709.0:
        return 1.0 / Gamma
    if Gamma < sys.float_info.min:  # g < 4 here, as T is finite
        return T * (1.0 / g - 1.0 / math.expm1(g))
    return 1.0 / Gamma - T / math.expm1(g)


def decay_time_approx(Gamma: float, omega_L: float, n: int) -> float:
    """Leading-order decay time 1/(Gamma + 2 omega_L / n).

    The 2 omega_L / n term is the measurement-induced broadening for n
    probes spaced by 1/omega_L; it matches the exact integral only to
    leading order in Gamma T (about 20 percent off by Gamma T = 1).
    """
    if require_finite("Gamma", Gamma) < 0.0:
        raise InvalidParamsError(f"Gamma must be >= 0, got {Gamma}")
    if require_finite("omega_L", omega_L) < 0.0:
        raise InvalidParamsError(f"omega_L must be >= 0, got {omega_L}")
    total = Gamma + 2.0 * omega_L / require_positive_int("n", n)
    if total <= 0.0:
        raise InvalidParamsError("Gamma and omega_L cannot both be zero")
    return 1.0 / total


@dataclass(frozen=True)
class DaviesModel:
    """Discrete-bath model: a reference level plus 2R equispaced modes.

    The reference level sits at energy 0 inside a ladder E_r = r Delta_E
    for r in {-R, ..., R} excluding 0, each mode coupled to the
    reference with the same amplitude g = sqrt(Gamma Delta_E / pi), the
    value for which the golden rule gives amplitude decay e^{-Gamma t}.
    The total dimension is 2R + 1.
    """

    Gamma: float
    R: int
    Delta_E: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "R", require_positive_int("R", self.R))
        require_finite_fields(self, "Gamma", "Delta_E")
        for name in ("Gamma", "Delta_E"):
            if not getattr(self, name) > 0.0:
                raise InvalidParamsError(f"{name} must be finite and > 0")

    @property
    def dim(self) -> int:
        return 2 * self.R + 1

    @property
    def coupling(self) -> float:
        return math.sqrt(self.Gamma * self.Delta_E / math.pi)

    @property
    def bandwidth(self) -> float:
        return self.R * self.Delta_E


# Bernoulli numbers B_2, B_4, ..., B_14 of the asymptotic tails below
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
# the explicit head terms j = 0..9 of a pole run, summed one term at a time
_HEAD = 10


def _pole_runs(z: NDArray, n: NDArray) -> tuple[NDArray, NDArray]:
    """The runs sum_{j < n} (z + j)^-1 and sum_{j < n} (z + j)^-2, for 0 < z <= 1, n >= 0.

    Each is the head sum_{j < 10} at z, less the head at z + n, plus psi(b) - psi(a)
    or zeta(2, a) - zeta(2, b), a = z + 10, b = z + n + 10, from their asymptotic
    series to B_14 (DLMF 5.11.2, 25.11.43), exact to 1e-16 there; ln(b/a) is log1p(n/a).
    The heads are summed one term at a time, in order of j, into two 1-D sums.
    """
    w = np.concatenate([z, z + n])
    head1, head2, inv = np.zeros(w.size), np.zeros(w.size), np.empty(w.size)
    for j in range(_HEAD):
        np.reciprocal(np.add(w, float(j), out=inv), out=inv)
        head1 += inv
        head2 += np.multiply(inv, inv, out=inv)
    v = w + float(_HEAD)
    u, series1, series2 = 1.0 / (v * v), 0.0, 0.0
    for i in range(len(_BERNOULLI) - 1, -1, -1):
        series1 = (series1 + _BERNOULLI[i] / (2 * i + 2)) * u
        series2 = (series2 + _BERNOULLI[i]) * u
    # each head plus ln(v) - psi(v), and plus zeta(2, v)
    run1 = head1 + 0.5 / v + series1
    run2 = head2 + (1.0 + 0.5 / v + series2) / v
    return run1[:z.size] - run1[z.size:] + np.log1p(n / v[:z.size]), run2[:z.size] - run2[z.size:]


def _ladder_sums(k: NDArray, d: NDArray, R: int) -> tuple[NDArray, NDArray]:
    """S1, S2: the sums of (x - r)^-1 and (x - r)^-2 over r = -R..R, r != 0, at x = k + d.

    In an inner gap k < R the poles r = k, k - 1, ..., -R below x are the
    run at d of length k + R + 1, less the reference level r = 0, and the
    R - k poles above are the run at 1 - d, negated in S1.  Both are taken
    at the offset d, never at x, so roots next to a pole keep their relative
    accuracy.  In gap R, where d may far exceed 1, all 2R poles lie below x
    and are summed directly.
    """
    inner, m = d[:-1], R - 1
    run1, run2 = _pole_runs(np.concatenate([inner, 1.0 - inner]),
                            np.concatenate([k[:-1] + R + 1.0, R - k[:-1]]))
    x, outer = k[:-1] + inner, 1.0 / (np.delete(np.arange(2.0 * R + 1.0), R) + d[-1])
    return (np.append(run1[:m] - 1.0 / x - run1[m:], outer.sum()),
            np.append(run2[:m] - 1.0 / x**2 + run2[m:], (outer * outer).sum()))


def _require_within_cap(model: DaviesModel, dim_cap: int, samples: int = 1) -> None:
    """dim_cap bounds the per-model work, not memory (O(dim) per row): dim <= dim_cap,
    and samples x dim <= dim_cap^2 terms of the amplitude sum at that many times."""
    cap = require_positive_int("dim_cap", dim_cap)
    if model.dim > cap or samples * model.dim > cap * cap:
        over = (f"model dimension {model.dim} exceeds the cap {cap}" if model.dim > cap else
                f"{samples} samples x dimension {model.dim} exceed the cap {cap} squared")
        raise ResourceLimitError(f"{over}; raise dim_cap explicitly to allow the secular solve, "
                                 f"propagator column and samples x dim amplitude terms")


def _davies_spectrum(model: DaviesModel, dim_cap: int, samples: int = 1) -> _Spectrum:
    """The model's spectrum, solved once per instance and kept in its __dict__ (a new
    model, even an equal one, solves again); the cap is checked on every call."""
    _require_within_cap(model, dim_cap, samples)
    if "_spectrum" not in model.__dict__:
        model.__dict__["_spectrum"] = _solve_secular(model)
    return model.__dict__["_spectrum"]


def _solve_secular(model: DaviesModel) -> _Spectrum:
    """Eigenvalues lambda = Delta_E (pole + offset) and weights |v_k[0]|^2.

    In units of Delta_E the eigenvalues solve x = c S1(x), c = g^2/Delta_E^2:
    x = 0 and pairs +-x, one in each gap (k, k + 1), k < R, and one above R
    with 2Rc <= x^2 <= R^2 + 2Rc (so x - R < c), as 2R/x <= S1(x) <= 2Rx/(x^2 - R^2).
    In each gap f(d) = k + d - c S1(k + d) rises between poles at the ends.
    Newton steps on the pole-cleared h = d (1 - d) f (d f in gap R; f' = 1 + c S2)
    from the continuum-limit root bisect when they leave the bracket of the signs
    of h seen so far, ends included (LAPACK dlaed4; R.-C. Li, LAPACK Working Note
    89, 1993), until each offset moves by a few ulps or lands on a bracket end.
    The weights are w = 1 / (1 + c S2); the arrays are shared by every caller
    of the model, so they are read-only.
    """
    R, c = model.R, model.coupling**2 / model.Delta_E**2
    k = np.arange(1.0, R + 1.0)
    lo, hi = np.zeros(R), np.ones(R)
    lo[-1], hi[-1] = max(0.0, math.sqrt(2.0 * R * c) - R), c
    # S1(x) ~ pi cot(pi d) - 1/x + ln((R + 1/2 + x) / (R + 1/2 - x)) near x = k
    guess = np.arctan2(np.pi * c, k + c / k - c * np.log((R + 0.5 + k) / (R + 0.5 - k)))
    d, inner = np.clip(guess / np.pi, lo, hi), k < R
    for _ in range(64):
        s1, s2 = _ladder_sums(k, d, R)
        f, upper = k + d - c * s1, np.where(inner, 1.0 - d, 1.0)
        h, slope = d * upper * f, (upper - inner * d) * f + d * upper * (1.0 + c * s2)
        lo, hi = np.where(h < 0.0, d, lo), np.where(h < 0.0, hi, d)
        new = d - h / slope
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        done = (np.abs(new - d) <= 4.0 * np.spacing(d)) | (new == lo) | (new == hi)
        d = new
        if done.all():
            break
    weights = 1.0 / (1.0 + c * _ladder_sums(k, d, R)[1])
    w_zero = 1.0 / (1.0 + 2.0 * c * _pole_runs(np.ones(1), np.full(1, R))[1][0])
    spectrum = (
        np.concatenate([-k[::-1], [0.0], k]),
        np.concatenate([-d[::-1], [0.0], d]),
        np.concatenate([weights[::-1], [w_zero], weights]),
    )
    for part in spectrum:
        part.flags.writeable = False
    return spectrum


# near-field half-width m and far-field expansion order of the column:
# inner offsets |d| < 1 and |k - r| > m leave (1/(m + 1))^P < 1e-20
_NEAR, _POWERS = 48, 12


def _add_near_field(rows: NDArray, a: NDArray, d: NDArray) -> None:
    """Add to rows (index r + R) the inner roots with |k - r| <= m, through two dim-length
    buffers, over those diagonals that reach the ladder, padded with a = 0, d = 1/2.  A zero
    denominator keeps 0 as its reciprocal: row 0 meeting the reference root, on the diagonal
    j = m only (|d| < 1 elsewhere); the caller drops row 0."""
    m, dim, pad = _NEAR, rows.size, np.zeros(_NEAR + 1)
    a_pad, d_pad = np.concatenate([pad, a, pad]), np.concatenate([pad + 0.5, d, pad + 0.5])
    denom, term = np.empty(dim), np.empty(dim, complex)
    for j in range(max(0, m - dim), min(2 * m, m + dim) + 1):
        np.add(j - m, d_pad[j:j + dim], out=denom)
        np.reciprocal(denom, out=denom, where=denom != 0.0 if j == m else True)
        rows += np.multiply(a_pad[j:j + dim], denom, out=term)


def _add_far_field(rows: NDArray, a: NDArray, d: NDArray) -> None:
    """Add to rows the inner roots with |k - r| > m: inner root q = k + R - 1 meets row
    i = r + R at k - r = 1 - (i - q).  The running powers of kernel 1/u and moment a (-d)^p
    are updated in place, their transforms written into two length-n buffers."""
    m, n = _NEAR, 1 << (2 * rows.size - 2).bit_length()  # n > 4R = 2 (dim - 1)
    u = 1.0 - np.fft.fftfreq(n, 1.0 / n)
    base = np.divide(1.0, u, out=np.zeros(n), where=np.abs(u) > m)
    kernel, moment, minus_d = base.copy(), a.copy(), -d
    spectrum, f_moment, f_kernel = (np.zeros(n, complex) for _ in range(3))
    for _ in range(_POWERS):
        f_moment[:] = kernel  # the complex cast fft would otherwise allocate
        np.fft.fft(f_moment, out=f_kernel)
        np.fft.fft(moment, n, out=f_moment)
        spectrum += np.multiply(f_moment, f_kernel, out=f_moment)
        kernel *= base
        moment *= minus_d
    rows += np.fft.ifft(spectrum, out=f_kernel)[:rows.size]


def davies_propagator_column(
    model: DaviesModel, t: float, *, dim_cap: int = DEFAULT_DIM_CAP
) -> NDArray[np.complex128]:
    """Full first column U_{r,0}(t) of the discrete-model propagator.

    From v_k[r] = g v_k[0] / (lambda_k - E_r), in units of Delta_E,
    U_{r,0} = (g/Delta_E) sum_k a_k / (k - r + d_k), a_k = w_k e^{-i lambda_k t}.
    The inner roots (|d_k| < 1) are summed directly for |k - r| <= m and,
    farther out, through 1/(u + d) = sum_p (-d)^p / u^(p+1): one FFT
    correlation per power p, the far-field step of the fast multipole
    method on the regular ladder.  The two outer roots, whose offsets
    reach 2c, are summed directly.  After the solve: O(dim log dim) time and
    O(dim) memory, the near field one diagonal and the far field one power
    at a time; dim_cap bounds both (above it: ResourceLimitError).
    """
    pole, offset, weights = _davies_spectrum(model, dim_cap)
    amps = weights * np.exp(-1j * model.Delta_E * (pole + offset) * require_finite("t", t))
    a, d, rows = amps[1:-1], offset[1:-1], np.zeros(model.dim, complex)
    _add_near_field(rows, a, d)
    if 2 * model.R - 1 > _NEAR:  # some |k - r| <= 2R - 1 is beyond the near field
        _add_far_field(rows, a, d)
    ladder = pole[pole != 0.0]  # the two outer roots, summed directly
    rows = rows[pole != 0.0] + sum(amps[j] / ((pole[j] - ladder) + offset[j]) for j in (0, -1))
    return np.concatenate([[amps.sum()], model.coupling / model.Delta_E * rows])


def davies_amplitude(
    model: DaviesModel, t: ArrayLike, *, dim_cap: int = DEFAULT_DIM_CAP
) -> Union[complex, NDArray[np.complex128]]:
    """Survival amplitude U_00(t) = sum_k w_k e^{-i lambda_k t}.

    Returns the shape of t (a complex for a scalar).  The secular equation
    is solved once per model and the sum runs over blocks of times, in
    O(dim) memory for any number of them.  For bandwidth R Delta_E >> Gamma
    the amplitude tracks e^{-Gamma t} on t in [0, 3/Gamma]; as Delta_E
    decreases at fixed bandwidth the deviation falls, at first order in
    Delta_E from the omitted level r = 0, to a floor set by the bandwidth.
    """
    tarr = np.asarray(t, dtype=float)
    if not np.isfinite(tarr).all():
        raise InvalidParamsError("t must be finite")
    pole, offset, weights = _davies_spectrum(model, dim_cap, tarr.size)
    eigvals, flat = model.Delta_E * (pole + offset), tarr.ravel()
    # blocks of <= max(2^16, 16 dim) entries, no lone row (another BLAS path, other last digits)
    amps, step = [], max(16, (1 << 16) // eigvals.size)
    for block in np.array_split(flat, max(1, -(-flat.size // step))):
        phases = -1j * np.outer(block, eigvals)
        amps.append(np.exp(phases, out=phases) @ weights)
        del phases  # before the next block is built, so one block is held at a time
    if tarr.ndim == 0:
        return complex(amps[0][0])
    return np.concatenate(amps).reshape(tarr.shape)


def davies_max_deviation(
    model: DaviesModel, samples: int = 13, *, dim_cap: int = DEFAULT_DIM_CAP
) -> float:
    """Largest deviation |U_00(t) - e^{-Gamma t}| at samples uniform times on [0, 3/Gamma].

    The cap is checked before the grid is built.  The default 13 samples
    step by 0.25/Gamma.  The first quarter-lifetime is where the universal
    short-time (quadratic) transient lives; it depends on the bandwidth but
    not on Delta_E, so grids much finer near t = 0 measure the transient
    alone.  On this grid the deviation is a bandwidth floor (about 0.0126 at
    bandwidth 20 Gamma) plus a part first order in Delta_E from the omitted
    level r = 0; the grid ends long before the recurrence at t = 2 pi / Delta_E.
    """
    samples = require_positive_int("samples", samples)
    _require_within_cap(model, dim_cap, samples)
    times = np.linspace(0.0, 3.0 / model.Gamma, samples)
    amps = davies_amplitude(model, times, dim_cap=dim_cap)
    return float(np.max(np.abs(amps - np.exp(-model.Gamma * times))))
