"""Seeded inputs for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the
same invocation list, grid and oracle scaling, and the program under
test only ever sees the configs produced here.  Parameter ranges are
chosen so that the cost of a workload and its mix of outcomes barely
depend on the seed; the seed moves the numbers, not the shape of the
work.
"""

from __future__ import annotations

import math
import random

# fresh-interpreter runs per cycle: two evolves (one per method), two
# timescales, one spectrum, one sweep at both thread counts, one
# expected-error run; whole cycles keep the mix identical across seeds
CYCLE_SLOTS = ("evolve", "evolve", "timescales", "timescales", "spectrum", "sweep", "error")
INITIAL_STATES = ("excited", "ground", "x+", "x-")

# default oracle ladder: dims 1001 / 2001 / 4001 at bandwidth R * Delta_E = 20
ORACLE_LADDER = ((500, 0.04), (1000, 0.02), (2000, 0.01))


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _physical_bath(rng: random.Random) -> dict:
    """A bath with the squeezing phase near pi, where N~ >= 0 throughout."""
    gamma = _uniform(rng, 0.8, 1.2)
    return {
        "gamma": gamma,
        "epsilon": round(gamma * rng.uniform(0.2, 0.6), 6),
        "phi": _uniform(rng, math.pi - 0.3, math.pi + 0.3),
        "omega_L": _uniform(rng, 50.0, 150.0),
    }


def _evolve(rng: random.Random, method: str, initial: str) -> dict:
    return {
        "kind": "evolve",
        "command": "evolve",
        "config": {
            "bath": _physical_bath(rng),
            "drive": {"Omega": _uniform(rng, 8.0, 12.0), "Delta": _uniform(rng, -2.0, 2.0)},
            "evolve": {
                "initial": initial,
                "t_end": _uniform(rng, 3.0, 6.0),
                "samples": rng.randint(50, 400),
                "method": method,
            },
        },
    }


def _timescales(rng: random.Random) -> dict:
    return {
        "kind": "timescales",
        "command": "timescales",
        "config": {
            "bath": _physical_bath(rng),
            "drive": {"Omega": _uniform(rng, 2.0, 20.0), "Delta": _uniform(rng, -5.0, 5.0)},
            "schedule": {"n": rng.randint(1, 500)},
            "mode": rng.choice(("paper", "derived")),
        },
    }


def _spectrum(rng: random.Random) -> dict:
    return {
        "kind": "spectrum",
        "command": "spectrum",
        "config": {
            "bath": _physical_bath(rng),
            "spectrum": {
                "x_min": _uniform(rng, -20.0, -5.0),
                "x_max": _uniform(rng, 5.0, 20.0),
                "points": rng.randint(51, 401),
            },
        },
    }


def _small_sweep(rng: random.Random) -> dict:
    gamma = _uniform(rng, 0.8, 1.2)
    omega = sorted(_uniform(rng, 4.0, 20.0) for _ in range(3))
    return {
        "gamma": [gamma],
        "epsilon": [round(gamma * f, 6) for f in (rng.uniform(0.1, 0.4), rng.uniform(0.5, 0.9))],
        "Delta": [omega[0] / 2] + [_uniform(rng, -8.0, 8.0) for _ in range(3)],
        "Omega": omega,
        "phi": [_uniform(rng, math.pi - 0.3, math.pi + 0.3), _uniform(rng, -0.1, 0.1)],
        "omega_L": [_uniform(rng, 50.0, 150.0)],
        "n": sorted(rng.sample(range(1, 400), 4)),
    }


def _error_run(rng: random.Random, cycle: int) -> dict:
    """Alternate the two expected-error classes from cycle to cycle."""
    if cycle % 2 == 0:
        bath = _physical_bath(rng)
        # a squeezed bath at phase ~0 drives N~ below zero
        bath["phi"] = _uniform(rng, -0.1, 0.1)
        return {
            "kind": "timescales-unphysical",
            "command": "timescales",
            "config": {
                "bath": bath,
                "drive": {"Omega": _uniform(rng, 2.0, 20.0), "Delta": _uniform(rng, -5.0, 5.0)},
            },
            "expect": {"exit": 2, "error": "UnphysicalCoefficientsError"},
        }
    return {
        "kind": "oracle-csv",
        "command": "oracle",
        "config": {},
        "format": "csv",
        "expect": {"exit": 1, "error": "ConfigError"},
    }


def cli_invocations(seed: int, cycles: int) -> list[dict]:
    """The first `cycles` cycles of fresh-interpreter CLI runs.

    Each entry has kind, command, config, format, out (write to a file
    instead of stdout), threads and expect (exit code and error type).
    The two runs of a sweep slot share one config and differ only in
    --threads, so their payloads must be byte-identical.
    """
    rng = random.Random(seed)
    runs: list[dict] = []
    for cycle in range(cycles):
        slots = list(CYCLE_SLOTS)
        rng.shuffle(slots)
        states = rng.sample(INITIAL_STATES, 2)
        methods = ["superoperator", "bloch"]
        rng.shuffle(methods)
        for slot in slots:
            if slot == "evolve":
                batch = [_evolve(rng, methods.pop(), states.pop())]
            elif slot == "timescales":
                batch = [_timescales(rng)]
            elif slot == "spectrum":
                batch = [_spectrum(rng)]
            elif slot == "sweep":
                config = {"sweep": _small_sweep(rng)}
                batch = [
                    {"kind": "sweep", "command": "sweep", "config": config, "threads": t}
                    for t in (1, 2)
                ]
            else:
                batch = [_error_run(rng, cycle)]
            fmt = rng.choice(("csv", "json"))
            out = rng.random() < 0.5
            for run in batch:
                run.setdefault("format", fmt)
                run.setdefault("threads", None)
                run.setdefault("expect", {"exit": 0, "error": None})
                run["out"] = out
                run["cycle"] = cycle
                runs.append(run)
    return runs


def sweep_grid(seed: int) -> dict:
    """One 6 400-point grid with a stable share of every row status.

    - epsilon: one value above every gamma, so a fifth of the points
      are invalid-parameter skips; one at ~0.9 gamma which, at phases
      near pi/2, makes the slow quadrature grow (nonpositive Gamma_dec);
    - phi: one phase near 0, where the squeezed bath has N~ < 0;
    - Delta: two entries at +-Omega_k / 2 for some Omega_k, which put
      pi Delta / Omega on a tangent pole of the margin (partial rows).
    """
    rng = random.Random(seed)
    g0 = _uniform(rng, 0.9, 1.1)
    fractions = (
        rng.uniform(0.05, 0.15), rng.uniform(0.35, 0.45),
        rng.uniform(0.88, 0.92), rng.uniform(0.6, 0.7),
    )
    omega = sorted(_uniform(rng, lo, lo + 3.0) for lo in (4.0, 8.0, 12.0, 16.0, 20.0))
    k = rng.randrange(len(omega))
    delta = [omega[k] / 2, -omega[(k + 2) % len(omega)] / 2]
    delta += [_uniform(rng, -10.0, 10.0) for _ in range(6)]
    return {
        "gamma": [g0, round(1.05 * g0, 6)],
        "epsilon": [round(f * g0, 6) for f in fractions] + [round(_uniform(rng, 1.3, 1.6) * g0, 6)],
        "Delta": delta,
        "Omega": omega,
        "phi": [
            _uniform(rng, math.pi - 0.2, math.pi + 0.2),
            _uniform(rng, math.pi / 2 - 0.1, math.pi / 2 + 0.1),
            _uniform(rng, -0.1, 0.1),
            _uniform(rng, 0.75 * math.pi - 0.1, 0.75 * math.pi + 0.1),
        ],
        "omega_L": [_uniform(rng, 20.0, 60.0), _uniform(rng, 80.0, 150.0)],
        "n": sorted(rng.sample(range(1, 400), 2)),
    }


def grid_size(grid: dict) -> int:
    return math.prod(len(axis) for axis in grid.values())


def oracle_config(seed: int) -> dict:
    """The default ladder with Gamma and Delta_E scaled by one factor.

    Scaling both leaves the Hamiltonian in units of Gamma, the sampled
    times in units of 1/Gamma and hence every dimensionless result and
    threshold unchanged; the matrix dimensions are those of the default.
    """
    scale = round(2.0 ** random.Random(seed).uniform(-2.0, 2.0), 6)
    return {
        "oracle": {
            "Gamma": scale,
            "schedule": [[r, round(delta_e * scale, 12)] for r, delta_e in ORACLE_LADDER],
        }
    }
