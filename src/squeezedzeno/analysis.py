"""Sustainable-coherence conditions and parameter-space classification.

The decoherence and Zeno timescales of the weakly measured atom obey

    tau_zeno / tau_dec = [Gamma_dec + 2 omega_L/n] / [Gamma_pop + 2 omega_L/n],

and coherence is sustainable (the coherence outlives the population)
when the ratio does not exceed one.  Two algebraically inequivalent
published forms of this comparison are in circulation, differing by a
factor of two in the Re M~ term; both are implemented side by side:

    derived:  2 Re M~ <= 1 + 2 N~      (literal quotient of timescales)
    paper:    4 Re M~ <= 1 + 2 N~      (as printed in the reduction)

Neither mode is preferred: every report carries both.

For the asymptotic shift preset the "paper" inequality can be recast in
angular form.  With theta = atan2(|M(omega_L + Omega')|, Delta~ delta_M)
the left side

    lhs = sqrt(Delta~^2 delta_M^2 + |M|^2) sin(theta - phi)
          / [1 + 2 N(omega_L + Omega') + 3 (1 - Delta~^2) Re Upsilon]

satisfies lhs <= 1/4 exactly where the denominator is positive.  Its
numerator is evaluated expanded, as |M| cos phi - Delta~ delta_M sin phi,
so no rounded angle enters it.  On resonance-family phase profiles
phi = pi Delta / Omega the angle comparison collapses further to the
sufficient-condition margin

    Delta tan(pi Delta / Omega) - (gamma^2 - epsilon^2) / (2 gamma) >= 0,

which is what the grid classifier reports per point; its offset is
formed as mu lam / (2 gamma), in one place.

One array kernel evaluates all of this over a block of a grid's axes at
once; regime_sweep runs it one block of rows at a time and evaluate_regime
is its one-point case, so the timescales report and every sweep row
share each number.
Its coefficients come from the array function that effective_coefficients
and the angular forms evaluate on one point.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

import numpy as np

from .bloch import population_decay_rate, quadrature_decay_rate
from .coefficients import (
    DriveParams,
    EffectiveCoefficients,
    ShiftSpec,
    SqueezingShifts,
    _asymptotic_delta_m,
    _coefficient_arrays,
    _negative_n_tilde,
    _one_point,
    _phase,
    resolve_shifts,
)
from .errors import (
    EmptyGridError,
    InvalidParamsError,
    SingularDenominatorError,
    SqueezedZenoError,
    TangentSingularityError,
    require_bound,
    require_carrier,
    require_finite,
    require_positive_int,
)
from .spectrum import SqueezedVacuumParams

_MODES = ("paper", "derived")


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise InvalidParamsError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


def timescale_ratio(
    coeffs: EffectiveCoefficients, omega_L: float, n: int, mode: str = "derived"
) -> float:
    """Ratio tau_zeno / tau_dec in the requested mode.

    mode="derived" evaluates the literal quotient
    [Gamma_dec + 2 omega_L/n] / [Gamma_pop + 2 omega_L/n]; mode="paper"
    evaluates the printed reduction
    1/2 + (2 gamma Re M~ + omega_L/n) / (Gamma_pop + 2 omega_L/n),
    which doubles the Re M~ contribution.  omega_L is checked as in
    decay_time_approx, and SingularDenominatorError marks Gamma_pop + 2 omega_L/n = 0.
    """
    _check_mode(mode)
    meas = require_carrier(omega_L, zero=True) / require_positive_int("n", n)
    denom = population_decay_rate(coeffs) + 2.0 * meas
    if denom == 0.0:
        raise SingularDenominatorError("Gamma_pop + 2 omega_L/n is zero")
    if mode == "derived":
        return (quadrature_decay_rate(coeffs) + 2.0 * meas) / denom
    return 0.5 + (2.0 * coeffs.gamma * coeffs.m_tilde.real + meas) / denom


def sustainable_condition(coeffs: EffectiveCoefficients, mode: str = "derived") -> bool:
    """Whether coherence outlives population in the requested mode."""
    _check_mode(mode)
    factor = 2.0 if mode == "derived" else 4.0
    return factor * coeffs.m_tilde.real <= 1.0 + 2.0 * coeffs.n_tilde


def angular_theta(
    bath: SqueezedVacuumParams, drive: DriveParams, shifts: SqueezingShifts
) -> float:
    """Mixing angle theta = atan2(|M(omega_L + Omega')|, Delta~ delta_M).

    Zero by convention when both arguments vanish (for example an
    unsqueezed bath with the asymptotic preset); the angular left side
    is exactly zero there, so the angle carries no information.
    """
    m1, x = _one_point(bath, drive)[1], drive.delta_tilde * shifts.delta_M
    return 0.0 if m1 == 0.0 and x == 0.0 else math.atan2(m1, x)


def angular_condition(
    bath: SqueezedVacuumParams, drive: DriveParams, shifts: SqueezingShifts
) -> tuple[float, bool]:
    """Angular form of the sustainability condition.

    Returns (lhs, lhs <= 1/4), with the numerator |M| sin(theta - phi)
    expanded as |M(omega_L + Omega')| cos phi - Delta~ delta_M sin phi,
    the kernel's expression; its sign is kept, so phi > theta makes the
    condition hold trivially.  A zero numerator short-circuits to
    (0.0, True), the continuous limit.  Raises SingularDenominatorError
    when the denominator 1 + 2 N(omega_L + Omega') + 3 (1 - Delta~^2)
    Re Upsilon is smaller than 1e-12 in modulus.
    """
    n1, m1, ups = _one_point(bath, drive)[:3]
    dt, (c, s) = drive.delta_tilde, _phase(bath.phi)[:2]
    numerator = m1 * c - dt * shifts.delta_M * s
    if numerator == 0.0:
        return 0.0, True
    denominator = 1.0 + 2.0 * n1 + 3.0 * (1.0 - dt * dt) * ups.real
    if abs(denominator) < 1e-12:
        raise SingularDenominatorError(f"angular-condition denominator is {denominator:.3g}; "
                                       "the reduction is singular at these parameters")
    lhs = numerator / denominator
    return lhs, lhs <= 0.25


def tan_theta_asymptotic(bath: SqueezedVacuumParams, drive: DriveParams) -> float:
    """Closed form tan(theta) = (gamma^2 - epsilon^2) / (2 Delta gamma).

    Valid in the asymptotic-shift regime; identical to
    mu lam / ((mu + lam) Omega' Delta~) through mu lam = gamma^2 -
    epsilon^2, mu + lam = 2 gamma and Omega' Delta~ = Delta, and formed
    as the margin's offset over Delta.  Raises on Delta = 0 where the
    angle sits at pi/2 and the tangent diverges.
    """
    if drive.Delta == 0.0:
        raise SingularDenominatorError("tan(theta) diverges at Delta = 0 (theta = pi/2)")
    return _margin_offset(bath) / drive.Delta


def sufficient_condition_margin(
    bath: SqueezedVacuumParams, drive: DriveParams
) -> float:
    """Signed residual Delta tan(pi Delta/Omega) - (gamma^2 - epsilon^2)/(2 gamma).

    Nonnegative values mean the phase-locked sufficient condition holds
    (Zeno dominance); the margin tends to zero from above as epsilon
    approaches gamma at small Delta / Omega and to -gamma/2 for an
    unsqueezed bath at vanishing detuning.
    """
    return _tangent_term(drive) - _margin_offset(bath)


def _tangent_term(drive: DriveParams) -> float:
    """Delta tan(pi Delta / Omega), the drive's part of the margin."""
    require_bound("Omega", drive.Omega, ">", 0, " for the phase profile")
    x = math.pi * drive.Delta / drive.Omega
    if not math.isfinite(x):
        raise InvalidParamsError(f"pi Delta / Omega must be finite, got {x}")
    # distance from the nearest odd multiple of pi/2, where tan blows up
    residue = math.remainder(x - 0.5 * math.pi, math.pi)
    if abs(residue) < 1e-9:
        raise TangentSingularityError(
            f"pi Delta / Omega = {x:.12g} is within 1e-9 of a tangent pole"
        )
    return drive.Delta * math.tan(x)


def _margin_offset(bath: SqueezedVacuumParams) -> float:
    """(gamma^2 - epsilon^2) / (2 gamma), the bath's part of the margin, formed as
    mu lam / (2 gamma): the difference of the two squares would cancel as epsilon -> gamma."""
    return bath.mu * bath.lam / (2.0 * bath.gamma)


# what one parameter point reports, in report order
_REPORTED = (
    "Gamma_dec", "Gamma_pop", "tau_dec", "tau_zeno", "ratio_derived", "ratio_paper",
    "cond_derived", "cond_paper", "theta", "angular_lhs", "sufficient_margin",
)


class RegimeVerdict(namedtuple("RegimeVerdict", (*_REPORTED, "errors"))):
    """Everything reported for one parameter point, in report order.

    Both ratios and both condition booleans are always present.  theta
    and angular_lhs document the angular reduction, sufficient_margin
    the phase-locked criterion.  A margin pole (or Omega = 0) leaves
    sufficient_margin NaN and is kept in errors as ("margin", exception).
    """

    __slots__ = ()

    def report(self) -> dict:
        """The reported quantities by name, in field order (errors left out)."""
        return dict(zip(_REPORTED, self))


def evaluate_regime(
    bath: SqueezedVacuumParams,
    drive: DriveParams,
    n: int,
    *,
    shifts: ShiftSpec = "asymptotic",
) -> RegimeVerdict:
    """Full verdict at one parameter point: the grid kernel on one point.

    shifts is a spec for resolve_shifts, the asymptotic preset by
    default.  Raises UnphysicalCoefficientsError where the effective
    description breaks down and InvalidParamsError when Gamma_dec <= 0:
    |M~| above the positivity bound turns the slow quadrature into a
    growing mode, and there is no decay time to compare.  A margin
    singularity is recorded in RegimeVerdict.errors instead of raised.
    """
    grid = SweepGrid(bath.gamma, bath.epsilon, drive.Delta, drive.Omega, bath.phi, bath.omega_L, n)
    columns, faults = _regime_columns(_regime_inputs(grid, shifts), (1,) * 7)
    fault = faults.item(0)
    if isinstance(fault, Exception):
        raise fault
    return RegimeVerdict(*(column.item(0) for column in columns.values()), fault or ())


SWEEP_COLUMNS = (
    "gamma", "epsilon", "Delta", "Omega", "phi", "omega_L", "n",
    *(name for name in _REPORTED if name != "theta"),
    "status",
)

# one grid point of a regime sweep, in the fixed column order
SweepRow = namedtuple("SweepRow", SWEEP_COLUMNS)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian parameter grid over (gamma, epsilon, Delta, Omega, phi, omega_L, n).

    Points enumerate in row-major order with n varying fastest; the
    ordering is part of the output contract (sweeps are reproducible
    byte for byte).
    """

    gamma: tuple[float, ...]
    epsilon: tuple[float, ...]
    Delta: tuple[float, ...]
    Omega: tuple[float, ...]
    phi: tuple[float, ...]
    omega_L: tuple[float, ...]
    n: tuple[int, ...]

    def __post_init__(self) -> None:
        for name in SWEEP_COLUMNS[:7]:
            values = np.atleast_1d(getattr(self, name)).tolist()
            if not values:
                raise EmptyGridError(f"grid axis {name!r} is empty")
            check = require_positive_int if name == "n" else require_finite
            object.__setattr__(self, name, tuple(check(name, v) for v in values))

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SweepGrid":
        """Build a grid from a config mapping; scalars become 1-point axes."""
        unknown = set(mapping) - set(SWEEP_COLUMNS[:7])
        if unknown:
            raise InvalidParamsError(f"unknown grid axes: {sorted(unknown)}")
        missing = set(SWEEP_COLUMNS[:7]) - set(mapping)
        if missing:
            raise InvalidParamsError(f"missing grid axes: {sorted(missing)}")
        return cls(**mapping)

    @property
    def axes(self) -> tuple[tuple, ...]:
        return tuple(getattr(self, name) for name in SWEEP_COLUMNS[:7])

    @property
    def size(self) -> int:
        return math.prod(map(len, self.axes))


# rows per slab: RunConfig.render writes every table this many rows at a time.
# A sweep's kernel takes a block of up to _BLOCK_SLABS slabs at a time: each call
# has a fixed cost of a few hundred numpy calls, and at its peak a block takes
# under 250 bytes a row in the kernel and 250 to 1 500 while its texts are formatted
SLAB_ROWS = 512
_BLOCK_SLABS = 8


def _along(values, dims: tuple[int, ...], shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """values listed over the product of the axes dims, shaped to broadcast on shape."""
    return np.array(values, dtype=dtype).reshape(
        [size if axis in dims else 1 for axis, size in enumerate(shape)]
    )


def _math(fn, *arrays) -> np.ndarray:
    """fn from math per element (numpy's atan2 can differ from math's in the last ulp)."""
    arrays = np.broadcast_arrays(*arrays)
    return np.reshape(list(map(fn, *(a.ravel().tolist() for a in arrays))), arrays[0].shape)


def _caught(fn, *args):
    """fn(*args), or the library error it raises (without its traceback)."""
    try:
        return fn(*args)
    except SqueezedZenoError as exc:
        return exc.with_traceback(None)


def _regime_inputs(grid: SweepGrid, shifts: ShiftSpec) -> dict:
    """What the kernel reads of a grid, formed once per grid, by name.

    Each axis, and each kind of record built and validated once over the
    product of the axes its checks read: the bath amplitude and widths per
    (gamma, epsilon) at phi = 0 and a valid carrier, the carrier per omega_L,
    the drive and its tangent term per (Delta, Omega), the phase parts per phi,
    and a non-asymptotic spec's shifts once.  Each gives the quantities taken
    from it as arrays that broadcast on the grid's shape (size 1 along the axes
    they do not depend on), NaN where the record is invalid, and its exceptions
    (None where valid).  A bath's first fault is that of its (gamma, epsilon)
    part, or failing that, that of its carrier (SqueezedVacuumParams checks
    them in that order), so the two records give each point its own error.
    """
    shape = tuple(map(len, grid.axes))
    inputs = {name: _along([float(v) for v in grid.axes[i]], (i,), shape)
              for i, name in ((0, "gamma"), (2, "Delta"), (6, "n"))}

    def records(dims: tuple[int, ...], build, *names: str) -> np.ndarray:
        """build(*point) over the product of the axes dims, its values stored by names
        (NaN where it raised); returns the exceptions (None where it did not)."""
        built = [_caught(build, *point)
                 for point in itertools.product(*(grid.axes[i] for i in dims))]
        inputs.update(zip(names, (_along(c, dims, shape) for c in zip(*(
            (math.nan,) * len(names) if isinstance(b, Exception) else b for b in built)))))
        return _along([b if isinstance(b, Exception) else None for b in built], dims, shape, object)

    def widths(gamma: float, epsilon: float) -> tuple:
        bath = SqueezedVacuumParams(gamma, epsilon, 0.0, 1.0)
        return (bath.gamma * bath.epsilon, bath.lam ** 2, bath.mu ** 2, bath.lam, bath.mu,
                _margin_offset(bath))

    inputs["bath_error"] = records((0, 1), widths, "q", "lam2", "mu2", "lam", "mu", "offset")
    inputs["carrier_error"] = records((5,), lambda omega_L: (require_carrier(omega_L),), "omega_L")
    inputs["drive_error"] = records((2, 3), lambda Delta, Omega: attrgetter(
        "omega_prime", "delta_tilde", "omega_tilde")(DriveParams(Omega, Delta)), "op", "dt", "ot")
    # the fault of a point whose drive has a tangent pole, one per drive record
    poles = records((2, 3), lambda Delta, Omega: (_tangent_term(DriveParams(Omega, Delta)),),
                    "tangent")
    inputs["margin"] = np.frompyfunc(lambda exc: None if exc is None else (("margin", exc),),
                                     1, 1)(poles)
    records((4,), _phase, "c", "s", "C", "S")
    if not (isinstance(shifts, str) and shifts == "asymptotic"):  # else delta_M is per point
        inputs["shift_error"] = records((), lambda: attrgetter("delta_N", "delta_M")(
            resolve_shifts(shifts, None, None)), "delta_N", "delta_M")
    return inputs


def _regime_columns(inputs: dict, shape: tuple[int, ...]) -> tuple[dict, list]:
    """Every verdict over a block of the grid at once: the one kernel.

    inputs are _regime_inputs' arrays cut to the block, whose shape is shape
    (delta_M is formed here where they hold none).  The seven axes broadcast in
    grid order (n fastest), so each quantity is computed once per combination
    of the axes it depends on.  The coefficients and Gamma_dec come from
    coefficients._coefficient_arrays (Gamma_dec in its cancellation-free form,
    not as quadrature_decay_rate sums a record's fields), and the rest repeats
    the scalar formulas (theta with math.atan2 per element), so every number
    has the bits of a point-by-point evaluation.  Returns the RegimeVerdict columns,
    each over its own axes and the six before n (float64, or objects for the
    booleans; NaN or None where skipped), and over those six the None,
    exception or ("margin", exception) pair of each point.
    """
    gamma, omega_L, n, dt, c, s = (inputs[k] for k in ("gamma", "omega_L", "n", "dt", "c", "s"))
    q, lam2, mu2, op = (inputs[k] for k in ("q", "lam2", "mu2", "op"))

    with np.errstate(all="ignore"):
        delta_N = inputs.get("delta_N", 0.0)
        delta_M = (inputs["delta_M"] if "delta_M" in inputs
                   else _asymptotic_delta_m(op, q, lam2, mu2, inputs["lam"], inputs["mu"]))
        n1, m1, (ups_re, _), n_tilde, (m_re, _), _, _, g_dec = _coefficient_arrays(
            gamma, q, lam2, mu2, op, inputs["Delta"], dt, inputs["ot"],
            *(inputs[k] for k in "csCS"), delta_N, delta_M)
        g_pop = gamma * (1.0 + 2.0 * n_tilde)
        meas = omega_L / n
        denom = g_pop + 2.0 * meas
        # the angular reduction.  Its denominator is 1 + 2 n1 + 6 t with
        # t = n_tilde - n1 = (1 - dt^2) Re Upsilon / 2, and it is never singular
        # where a point is reported: Re Upsilon > -2 gamma epsilon / (gamma +
        # epsilon)^2 >= -1/2 gives t > -1/4, and n_tilde >= 0 (skipped otherwise)
        # gives n1 >= -t, so the denominator is at least min(1, 1 + 4 t) > 0
        x = dt * delta_M
        numerator = m1 * c - x * s
        lhs = numerator / (1.0 + 2.0 * n1 + 3.0 * (1.0 - dt * dt) * ups_re)
        columns = {
            "Gamma_dec": g_dec,
            "Gamma_pop": g_pop,
            "tau_dec": 1.0 / (g_dec + 2.0 * omega_L / n),
            "tau_zeno": 1.0 / (g_pop + 2.0 * omega_L / n),
            "ratio_derived": (g_dec + 2.0 * meas) / denom,
            "ratio_paper": 0.5 + (2.0 * gamma * m_re + meas) / denom,
            "cond_derived": 2.0 * m_re <= 1.0 + 2.0 * n_tilde,
            "cond_paper": 4.0 * m_re <= 1.0 + 2.0 * n_tilde,
            "theta": np.where((m1 == 0.0) & (x == 0.0), 0.0, _math(math.atan2, m1, x)),
            "angular_lhs": np.where(numerator == 0.0, 0.0, lhs),
            "sufficient_margin": inputs["tangent"] - inputs["offset"],
        }

    vshape = shape[:6] + (1,)  # no fault depends on n
    faults = np.full(vshape, None, dtype=object)
    skipped = np.zeros(vshape, dtype=bool)

    def skip(mask, values, error=None):
        """Skip the points of mask that nothing skipped yet: with values there (the
        exceptions), or with error(value), one exception per distinct float."""
        new = ~skipped & mask
        values = np.broadcast_to(values, vshape)[new]
        if error is not None:
            keys, where = np.unique(values.view(np.int64), return_inverse=True)
            values = np.array([error(v) for v in keys.view(np.float64).tolist()],
                              dtype=object)[where]
        faults[new] = values
        skipped[new] = True

    for name in ("bath_error", "carrier_error", "drive_error", "shift_error"):
        if name in inputs:
            skip(np.not_equal(inputs[name], None), inputs[name])
    skip(~np.isfinite(delta_M), delta_M, lambda v: _caught(SqueezingShifts, 0.0, v))
    skip(n_tilde < 0.0, n_tilde, _negative_n_tilde)
    skip(g_dec <= 0.0, g_dec,
         lambda v: InvalidParamsError(f"nonpositive quadrature decay rate ({v:.6g})"))
    for rate in (g_dec, g_pop):  # the decay times take finite rates only
        skip(~np.isfinite(rate), rate, lambda v: _caught(require_finite, "Gamma", v))

    margin = inputs["margin"]
    partial = np.broadcast_to(np.not_equal(margin, None), vshape) & ~skipped
    faults[partial] = np.broadcast_to(margin, vshape)[partial]

    report = {name: np.where(skipped, None if column.dtype == bool else math.nan, column)
              for name, column in columns.items()}
    return report, faults


def _status(fault) -> str:
    if fault is None:
        return "ok"
    if isinstance(fault, Exception):
        return f"skipped: {fault}"
    return "partial: " + "; ".join(f"{label}: {exc}" for label, exc in fault)


class _SweepTable(Sequence):
    """The rows of a sweep in grid order, computed a block at a time.

    A block is a slab of the grid's leading axes: one index on each axis
    before its split axis, a run of indices on that axis and every index
    on the axes after it, which makes consecutive rows, at most
    _BLOCK_SLABS * SLAB_ROWS of them (the split axis is the first whose
    trailing axes fit).  blocks() gives each block as its columns, one
    array per SWEEP_COLUMNS entry over the axes it depends on, which
    broadcast on the block's shape, rows in C order; a SweepRow of Python
    values is built only when a row is read, from the block that holds
    it, and only the block read last is kept.
    """

    def __init__(self, grid: SweepGrid, shifts: ShiftSpec) -> None:
        self._inputs = _regime_inputs(grid, shifts)
        shape = self._shape = tuple(map(len, grid.axes))
        self._points = [_along(axis, (i,), shape, None) for i, axis in enumerate(grid.axes)]
        axis, inner, most = 6, 1, _BLOCK_SLABS * SLAB_ROWS
        while axis > 0 and inner * shape[axis] <= most:
            inner *= shape[axis]
            axis -= 1
        self._axis = axis
        self._step = min(shape[axis], most // inner)  # indices of the split axis per block
        self._rows = self._step * inner  # rows of a whole block
        self._span = shape[axis] * inner  # rows per index of the axes before the split
        self._per_span = -(-shape[axis] // self._step)
        self._last = (None, None)

    def __len__(self) -> int:
        return math.prod(self._shape)

    def blocks(self) -> Iterator[list]:
        """The columns of each block, in grid order."""
        return map(self._block, range(len(self) // self._span * self._per_span))

    def _block(self, j: int) -> list:
        if self._last[0] == j:
            return self._last[1]
        self._last = (None, None)
        outer, part = divmod(j, self._per_span)
        start = part * self._step
        stop = min(start + self._step, self._shape[self._axis])
        index = [*(slice(i, i + 1) for i in np.unravel_index(outer, self._shape[:self._axis])),
                 slice(start, stop)]
        shape = (1,) * self._axis + (stop - start,) + self._shape[self._axis + 1:]

        def cut(array):
            """array's part in the block (the axes after the split are whole)."""
            return array[tuple(s if size > 1 else slice(None)
                               for s, size in zip(index, array.shape))]

        columns, faults = _regime_columns({name: cut(a) for name, a in self._inputs.items()},
                                          shape)
        statuses = {fault: _status(fault) for fault in set(faults.flat)}
        self._last = (j, [
            *map(cut, self._points),
            *(columns[name] for name in SWEEP_COLUMNS[7:-1]),
            np.frompyfunc(statuses.get, 1, 1)(faults),
        ])
        return self._last[1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        outer, offset = divmod(range(len(self))[i], self._span)  # IndexError past either end
        part, offset = divmod(offset, self._rows)
        columns = np.broadcast_arrays(*self._block(outer * self._per_span + part))
        return SweepRow._make(column.item(offset) for column in columns)

    def __iter__(self) -> Iterator[SweepRow]:
        for columns in self.blocks():
            columns = np.broadcast_arrays(*columns)
            yield from map(SweepRow._make, zip(*(column.ravel().tolist() for column in columns)))


def regime_sweep(grid: SweepGrid, *, shifts: ShiftSpec = "asymptotic") -> Sequence[SweepRow]:
    """Classify every grid point; rows come back in grid order.

    shifts is resolved as in evaluate_regime: the asymptotic preset per
    point, explicit values unchanged everywhere.  Each bath and drive
    record is built once, and the array kernel runs one block of the
    grid at a time when rows are read (see _SweepTable), so a sweep
    holds one block's columns.  Invalid points are emitted as skipped
    rows rather than aborting the sweep.
    """
    return _SweepTable(grid, shifts)
