"""Benchmark runner: one workload, one seed, one timed run.

    python3 bench/run.py --workload cli-oneshot --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

- cli-oneshot: seeded fresh-interpreter CLI runs, one after another;
- sweep-grid:  one large seeded grid through cli.main, at 1 and 2 threads;
- oracle:      the oracle subcommand on the default ladder, seed-scaled.

Closed loop, one client.  Every output is checked (bench/checks.py).
The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from the traced run.  The line before it
is a detail record: environment, per-kind latencies, payload hashes,
status shares and any failure messages.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli-oneshot", "sweep-grid", "oracle")
SETUP_REPS = 5
IMPORTTIME_REPS = 3
RUN_LIMIT_S = 170.0
MAX_CYCLES = 64

@dataclass
class Child:
    """Result of one child process."""

    code: int
    wall_s: float
    stdout: str
    stderr: str


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: str):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.tmp = tmp
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.env["PYTHONHASHSEED"] = "0"  # one less source of run-to-run variance
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.cross_checks_ok = True
        self.peak_rss_mb = 0.0
        self.detail: dict = {}
        self.hashes: set[str] = set()
        self._files = 0

    # -- processes ---------------------------------------------------------

    def path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.tmp, f"{self._files:05d}-{stem}")

    def child(self, argv: list[str], *, count_rss: bool = True) -> Child:
        """Run argv to completion; wait4 gives this child's own peak RSS."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if count_rss:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        stdout, stderr = Path(out_path).read_text(), Path(err_path).read_text()
        os.remove(out_path)
        os.remove(err_path)
        return Child(proc.returncode, wall, stdout, stderr)

    def write_config(self, config: dict) -> str:
        path = self.path("config.json")
        Path(path).write_text(json.dumps(config))
        return path

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.failures.extend(f"{label}: {e}" for e in errors)

    # -- set-up ------------------------------------------------------------

    def setup_s(self) -> float:
        """Median fresh-interpreter `import squeezedzeno.cli`, after one warm-up."""
        code = (
            "import time; t = time.perf_counter(); import squeezedzeno.cli; "
            "print(repr(time.perf_counter() - t))"
        )
        times = []
        for i in range(SETUP_REPS + 1):
            child = self.child([sys.executable, "-c", code], count_rss=False)
            if child.code != 0:
                raise RuntimeError(f"import squeezedzeno.cli failed:\n{child.stderr}")
            if i:
                times.append(float(child.stdout))
        return statistics.median(times)

    def import_profile(self) -> dict:
        """`-X importtime` totals: the package and scipy.integrate, medians."""
        totals, integrate = [], []
        for _ in range(IMPORTTIME_REPS):
            child = self.child(
                [sys.executable, "-X", "importtime", "-c", "import squeezedzeno.cli"],
                count_rss=False,
            )
            total = scipy_integrate = 0.0
            for line in child.stderr.splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                _, cumulative, name = line.split("|")
                if not cumulative.strip().isdigit():
                    continue
                if name.strip() == "scipy.integrate":
                    scipy_integrate = int(cumulative) * 1e-6
                if name.startswith(" squeezedzeno"):  # top level: one space after '|'
                    total += int(cumulative) * 1e-6
            totals.append(total)
            integrate.append(scipy_integrate)
        return {
            "import.total_s": statistics.median(totals),
            "import.scipy_integrate_s": statistics.median(integrate),
        }

    # -- cli-oneshot -------------------------------------------------------

    def cli_argv(self, run: dict, traced_spans: str | None = None) -> tuple[list[str], str | None]:
        config_path = self.write_config(run["config"])
        args = [run["command"], "--config", config_path, "--format", run["format"]]
        if run["threads"] is not None:
            args += ["--threads", str(run["threads"])]
        out = self.path("out") if run["out"] else None
        if out:
            args += ["--out", out]
        if traced_spans:
            return [sys.executable, str(BENCH / "tracing.py"), traced_spans, *args], out
        return [sys.executable, "-m", "squeezedzeno.cli", *args], out

    def cli_call(self, run: dict, traced_spans: str | None = None) -> tuple[Child, str, list[str]]:
        argv, out = self.cli_argv(run, traced_spans)
        child = self.child(argv)
        text = child.stdout
        if out and os.path.exists(out):
            text = Path(out).read_text()
            os.remove(out)
        expect = run["expect"]
        if expect["error"]:
            errors = checks.check_error(child.code, text, child.stderr, expect)
        elif child.code != 0:
            errors = [f"exit {child.code}: {child.stderr.strip()[-300:]}"]
        else:
            errors = self.check_cli_payload(run, text, argv)
        if child.code == 0:
            self.hashes.add(checks.content_sha256(text))
        return child, text, errors

    def check_cli_payload(self, run: dict, text: str, argv: list[str]) -> list[str]:
        kind, fmt, config = run["kind"], run["format"], run["config"]
        try:
            if kind == "spectrum":
                return checks.check_spectrum(text, fmt, config)
            if kind == "evolve":
                return checks.check_evolve(text, fmt, argv[argv.index("--config") + 1])
            if kind == "timescales":
                full = {"schedule": {"n": 100}, **config}
                return checks.check_timescales(text, fmt, full)
            return []  # sweeps are checked in pairs
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unreadable payload: {exc!r}"]

    def cli_oneshot(self) -> dict:
        runs = workloads.cli_invocations(self.seed, 1 if self.trace else MAX_CYCLES)
        latencies: dict[str, list[float]] = {}
        untraced_s = traced_s = 0.0
        span_files = []
        sweep_t1 = None
        start = time.perf_counter()
        for i, run in enumerate(runs):
            new_cycle = i and run["cycle"] != runs[i - 1]["cycle"]
            if new_cycle and time.perf_counter() - start >= self.seconds:
                break
            child, text, errors = self.cli_call(run)
            latencies.setdefault(run["kind"], []).append(child.wall_s)
            untraced_s += child.wall_s
            label = f"{run['kind']}#{i}"
            if run["kind"] == "sweep" and run["threads"] == 1:
                # checked together with its --threads 2 twin, which comes next
                sweep_t1, errors = (text, errors), []
            elif run["kind"] == "sweep":
                errors += sweep_t1[1] + checks.check_sweep(
                    sweep_t1[0], run["format"], workloads.grid_size(run["config"]["sweep"])
                )
                if text != sweep_t1[0]:
                    errors.append("payloads differ between --threads 1 and --threads 2")
            self.record(label, errors)
            if self.trace:
                span_files.append(self.path("spans.json"))
                traced, traced_text, traced_errors = self.cli_call(run, span_files[-1])
                traced_s += traced.wall_s
                if traced_text != text:
                    traced_errors.append("traced payload differs from the untraced one")
                self.record(label + " traced", traced_errors)
        all_runs = [t for kind in latencies for t in latencies[kind]]
        self.detail.update({
            "cli.latency_p50_s": statistics.median(all_runs),
            "cli.latency_tail_s": tail(all_runs),
            "cli.invocations": len(all_runs),
            **{f"cli.{k}_p50_s": statistics.median(v) for k, v in sorted(latencies.items())},
        })
        metrics = {
            "latency_p50_s": statistics.median(all_runs),
            "ops_per_s": len(all_runs) / sum(all_runs),
        }
        if self.trace:
            traced_calls = len(span_files)
            docs = [load_spans(p) for p in span_files]
            stats = tracing.merge_stats([tracing.layer_stats(d) for d in docs])
            counters = sum((Counter(d["counters"]) for d in docs), Counter())
            for layer in ("cli.main", "cli.cmd"):
                if stats.get(layer, {}).get("calls") != traced_calls:
                    self.cross_check(f"{layer} entries {stats.get(layer)} != {traced_calls} runs")
            metrics = layer_metrics([(stats, counters)])
            metrics["trace.overhead_ratio"] = traced_s / untraced_s
        return metrics

    # -- in-process workloads ----------------------------------------------

    def worker(self, task: str, config: dict) -> list[dict]:
        config_path = self.write_config(config)
        result_path = self.path("worker.json")
        argv = [
            sys.executable, str(BENCH / "worker.py"), task, config_path, self.tmp,
            repr(self.seconds), "1" if self.trace else "0", result_path,
        ]
        child = self.child(argv)
        if child.code != 0:
            raise RuntimeError(f"{task} worker failed (exit {child.code}):\n{child.stderr}")
        result = json.loads(Path(result_path).read_text())
        self.span_files = result["span_files"]
        return result["ops"]

    def sweep_grid(self) -> dict:
        grid = workloads.sweep_grid(self.seed)
        size = workloads.grid_size(grid)
        ops = self.worker("sweep", {"sweep": grid})
        reference = ops[0]
        text = Path(reference["out"]).read_text()
        errors = checks.check_sweep(text, "csv", size) if reference["exit"] == 0 else []
        columns, rows = checks.table(text, "csv")
        statuses = Counter(r[columns.index("status")].split(":", 1)[0] for r in rows)
        reasons = Counter(tracing.status_reason(r[columns.index("status")]) for r in rows)
        self.hashes.add(checks.content_sha256(text))
        for i, op in enumerate(ops):
            op_errors = list(errors) if i == 0 else []
            if op["exit"] != 0:
                op_errors.append(f"exit {op['exit']}")
            if op["sha256"] != reference["sha256"]:
                op_errors.append(f"{op['label']} payload differs from the first --threads 1 run")
            self.record(f"sweep {op['label']}#{i}", op_errors)
        t1 = [op["wall_s"] for op in ops if op["label"] == "t1"]
        t2 = [op["wall_s"] for op in ops if op["label"] == "t2"]
        pairs = [a + b for a, b in zip(t1, t2)]

        self.detail.update({
            "sweep.grid_points": size,
            "sweep.points_per_s": size / statistics.median(t1),
            "sweep.points_per_s_t2": size / statistics.median(t2),
            "sweep.pairs": len(pairs),
            "sweep.status_shares": {k: v / size for k, v in sorted(reasons.items())},
        })
        metrics = {"latency_p50_s": statistics.median(pairs), "ops_per_s": len(pairs) / sum(pairs)}
        if self.trace:
            units = []
            for path in self.span_files:
                doc = load_spans(path)
                counters = Counter(doc["counters"])
                units.append((tracing.layer_stats(doc), counters))
                swept = sum(counters[f"analysis.sweep.{s}"] for s in ("ok", "partial", "skipped"))
                if counters["analysis.sweep.points"] != size or swept != size:
                    self.cross_check(f"traced sweep saw {counters['analysis.sweep.points']} "
                                     f"points and {swept} statuses, grid has {size}")
                if any(counters[f"analysis.sweep.{s}"] != n for s, n in statuses.items()):
                    self.cross_check("traced status counts differ from the payload's")
            traced = [op["wall_s"] for op in ops if op["label"] == "t1-traced"]
            metrics = layer_metrics(units)
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(t1)
        return metrics

    def oracle(self) -> dict:
        config = workloads.oracle_config(self.seed)
        rows = len(config["oracle"]["schedule"])
        ops = self.worker("oracle", config)
        for i, op in enumerate(ops):
            text = Path(op["out"]).read_text()
            errors = [f"exit {op['exit']}"] if op["exit"] != 0 else checks.check_oracle(text, rows)
            self.hashes.add(checks.content_sha256(text))
            self.record(f"oracle {op['label']}#{i}", errors)
        walls = [op["wall_s"] for op in ops if op["label"] == "oracle"]
        self.detail.update({"oracle.wall_s": statistics.median(walls), "oracle.calls": len(walls)})
        metrics = {"latency_p50_s": statistics.median(walls), "ops_per_s": len(walls) / sum(walls)}
        if self.trace:
            units = []
            dims = sorted(2 * r + 1 for r, _ in config["oracle"]["schedule"])
            for path in self.span_files:
                doc = load_spans(path)
                units.append((tracing.layer_stats(doc), Counter(doc["counters"])))
                per_dim = Counter(doc["davies_entry_dims"])
                if sorted(per_dim) != dims or len(set(per_dim.values())) != 1:
                    self.cross_check(f"Davies entries per ladder dim {dict(per_dim)} are not "
                                     f"one equal count for each of {dims}")
                else:
                    self.detail["weakmeas.davies.entries_per_row"] = per_dim[dims[0]]
            traced = [op["wall_s"] for op in ops if op["label"] == "oracle-traced"]
            metrics = layer_metrics(units)
            metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(walls)
        return metrics

    def cross_check(self, message: str) -> None:
        self.failures.append(f"cross-check: {message}")
        self.cross_checks_ok = False

    # -- run ---------------------------------------------------------------

    def execute(self) -> dict:
        setup = self.setup_s()
        metrics = {"cli-oneshot": self.cli_oneshot, "sweep-grid": self.sweep_grid,
                   "oracle": self.oracle}[self.workload]()
        failed_ratio = self.failed / self.attempted
        self.detail.update({
            "setup_s": setup, "failed_ratio": failed_ratio, "peak_rss_mb": self.peak_rss_mb,
            "content_sha256": sorted(self.hashes - {None}),
            "failures": self.failures[:20],
        })
        if self.trace:
            metrics.update(self.import_profile())
            metrics["failed_ratio"] = failed_ratio
        else:
            metrics.update({"setup_s": setup, "peak_rss_mb": self.peak_rss_mb})
        # names, order and units are the ones BENCHMARK.json declares
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        section = declared["per_layer" if self.trace else "end_to_end"]
        return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section}


def tail(values: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return {"value": None, "percentile": None, "samples": len(ordered)}
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / len(ordered),
            "samples": len(ordered)}


def load_spans(path: str) -> dict:
    doc = json.loads(Path(path).read_text())
    os.remove(path)
    return doc


def layer_metrics(units: list[tuple[dict, Counter]]) -> dict:
    """Per-layer metrics of each traced unit, then the median over units."""
    per_unit = []
    for stats, counters in units:
        m = {}
        for layer in tracing.LAYERS:
            m[f"{layer}.calls"] = stats.get(layer, {}).get("calls", 0)
            m[f"{layer}.self_s"] = stats.get(layer, {}).get("self_s", 0.0)
        m.update({name: counters.get(name, 0) for name in tracing.COUNTERS})
        points = m["analysis.sweep.points"]
        sweep_s = stats.get("analysis.sweep", {}).get("total_s", 0.0)
        useful = m["analysis.sweep.ok"] + m["analysis.sweep.partial"]
        m["analysis.sweep.us_per_point"] = 1e6 * sweep_s / points if points else 0.0
        m["analysis.sweep.ok_ratio"] = useful / points if points else 0.0
        per_unit.append(m)
    return {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}


def blas_threads() -> int | None:
    """OpenBLAS thread count, asked from the library numpy loaded."""
    import ctypes

    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "squeezedzeno").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "squeezedzeno" / "cli.py").is_file():
        print(f"error: no package sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        metrics = run.execute()
        env = environment()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, **run.detail}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": run.failed == 0 and run.cross_checks_ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
