"""Layer tracing from outside the package, and the traced CLI launcher.

The tracer wraps every public function of the package's modules in
every namespace that bound it (a `from .bloch import evolve` in cli.py
is a second binding of the same function object, and patching only the
defining module would miss calls through it).  Each wrapped call records
a span (layer, start, end, parent span, operation id) in memory; the
spans are written out once, when the traced work is done.  Nothing under
src/ changes.

Run as a script, it is a traced stand-in for `python -m squeezedzeno.cli`:

    python bench/tracing.py SPANS.json sweep --config grid.json
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

MODULES = ("spectrum", "coefficients", "bloch", "weakmeas", "analysis", "config", "cli")

# (module, function-name pattern) -> layer; first match wins
LAYER_RULES = (
    ("spectrum", "*", "spectrum"),
    ("coefficients", "*", "coefficients"),
    ("bloch", "evolve", "bloch.evolve"),
    ("bloch", "fit_*", "bloch.fit"),
    ("bloch", "*_rate", "bloch.rates"),
    ("bloch", "*_rates", "bloch.rates"),
    ("bloch", "*", "bloch.generator"),
    ("weakmeas", "davies_*", "weakmeas.davies"),
    ("weakmeas", "*", "weakmeas.timescales"),
    ("analysis", "regime_sweep", "analysis.sweep"),
    ("analysis", "*", "analysis.conditions"),
    ("config", "*", "config.serialize"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_*", "cli.cmd"),
    ("cli", "*", "cli.parser"),
)

LAYERS = tuple(sorted({rule[2] for rule in LAYER_RULES} | {"config.load"}))

# counters recorded at layer boundaries (see Tracer._count)
COUNTERS = (
    "cli.bytes_out", "spectrum.points", "bloch.evolve.samples", "weakmeas.davies.dim_sum",
    "analysis.sweep.points", "analysis.sweep.ok", "analysis.sweep.partial",
    "analysis.sweep.skipped",
)

# the public entry points of the Davies layer that diagonalize a model
DAVIES_DIAGONALIZING = ("davies_amplitude", "davies_propagator_column")


def layer_of(module: str, name: str) -> str:
    for mod, pattern, layer in LAYER_RULES:
        if mod == module and fnmatch.fnmatchcase(name, pattern):
            return layer
    raise KeyError(f"{module}.{name}")


class Tracer:
    """Collects spans and counters while installed; one per process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()  # sweeps at --threads N trace from N threads
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self.davies_entry_dims: list[int] = []
        self.sweep_reasons: Counter = Counter()
        self.op = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, parent_layer = stack[-1] if stack else (-1, None)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append((index, layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (layer, start, end, parent, tracer.op)
            with tracer._lock:
                tracer._count(layer, name, layer != parent_layer, args, kwargs, result)
            return result

        return traced

    def _count(self, layer, name, entry, args, kwargs, result) -> None:
        c = self.counters
        if layer == "spectrum" and entry:
            import numpy as np

            omega = args[1] if len(args) > 1 else kwargs.get("omega")
            c["spectrum.points"] += int(np.size(omega))
        elif layer == "bloch.evolve":
            c["bloch.evolve.samples"] += len(result)
        elif layer == "weakmeas.davies":
            model = args[0] if args else kwargs.get("model")
            if name in DAVIES_DIAGONALIZING:
                c["weakmeas.davies.dim_sum"] += model.dim
            if entry:
                self.davies_entry_dims.append(model.dim)
        elif layer == "analysis.sweep":
            grid = args[0] if args else kwargs["grid"]
            c["analysis.sweep.points"] += grid.size
            for row in result:
                status = row.status.split(":", 1)[0]
                c[f"analysis.sweep.{status}"] += 1
                self.sweep_reasons[status_reason(row.status)] += 1
        elif layer == "cli.cmd":
            c["cli.bytes_out"] += len(result[0].encode("utf-8"))

    @contextmanager
    def installed(self):
        """Patch every binding of every public function; restore on exit."""
        import importlib

        modules = {m: importlib.import_module(f"squeezedzeno.{m}") for m in MODULES}
        namespaces = [importlib.import_module("squeezedzeno"), *modules.values()]
        wrappers = {}
        for mod_name, module in modules.items():
            for name, fn in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = self._wrap(fn, layer_of(mod_name, name), name)
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if id(value) in wrappers:
                    self._patches.append((namespace, name, value))
                    setattr(namespace, name, wrappers[id(value)])
        run_config = modules["config"].RunConfig
        load = run_config.__dict__["load"]
        self._patches.append((run_config, "load", load))
        run_config.load = classmethod(self._wrap(load.__func__, "config.load", "load"))
        try:
            yield self
        finally:
            while self._patches:
                owner, name, value = self._patches.pop()
                setattr(owner, name, value)

    def run_main(self, argv: list[str]) -> int:
        """One traced operation: a call of cli.main, the root span."""
        import squeezedzeno.cli as cli

        try:
            return cli.main(argv)
        finally:
            self.op += 1

    def dump(self, path) -> None:
        layers = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(layers)}
        doc = {
            "layers": layers,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
            "counters": dict(self.counters),
            "davies_entry_dims": self.davies_entry_dims,
            "sweep_reasons": dict(self.sweep_reasons),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
        self._reset()


def status_reason(status: str) -> str:
    """Collapse a sweep status to its reason class (no numbers)."""
    if status == "ok":
        return "ok"
    if status.startswith("partial:"):
        return "partial: " + ", ".join(
            note.split(":", 1)[0].strip() for note in status[len("partial:"):].split(";")
        )
    if "effective photon number is negative" in status:
        return "skipped: N~<0"
    if "nonpositive quadrature decay rate" in status:
        return "skipped: nonpositive Gamma_dec"
    return "skipped: invalid parameters"


def layer_stats(doc: dict) -> dict:
    """Per-layer entries, spans and self time from one dumped trace.

    A span's self time is its duration minus the time of its child
    spans (children of one span run in its thread, one after another).
    An entry is a span whose parent lies in another layer: calls inside
    one layer (fit_decay_rate -> fit_exponential) count once.
    """
    layers = doc["layers"]
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for layer, start, end, parent, _op in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict = defaultdict(lambda: {"calls": 0, "spans": 0, "self_s": 0.0, "total_s": 0.0})
    for i, (layer, start, end, parent, _op) in enumerate(spans):
        entry = stats[layers[layer]]
        entry["spans"] += 1
        entry["self_s"] += (end - start) - child[i]
        if parent < 0 or spans[parent][0] != layer:
            entry["calls"] += 1
            entry["total_s"] += end - start
    return dict(stats)


def merge_stats(parts: list[dict]) -> dict:
    merged: dict = defaultdict(lambda: {"calls": 0, "spans": 0, "self_s": 0.0, "total_s": 0.0})
    for part in parts:
        for layer, entry in part.items():
            for key, value in entry.items():
                merged[layer][key] += value
    return dict(merged)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    import squeezedzeno.cli  # noqa: F401  (import is set-up, not traced)

    tracer = Tracer()
    with tracer.installed():
        code = tracer.run_main(cli_argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
