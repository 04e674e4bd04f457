"""In-process loop for the sweep-grid and oracle workloads.

Runs in a child process of run.py, so that its peak RSS is the
workload's own.  It imports the package once (set-up, untimed), warms
up on the default config, then repeats one unit of work through
`cli.main` until the time is up:

- sweep:  the grid at --threads 1, then at --threads 2;
- oracle: the oracle subcommand.

With tracing on, each unit also repeats its first call under the
tracer; the untraced twin gives the tracing overhead.  Outputs go to
files in the temp dir given; the parent checks them.

    python bench/worker.py TASK CONFIG TMPDIR SECONDS TRACE RESULT
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    task, config, tmp, seconds, trace, result_path = argv
    seconds, trace = float(seconds), trace == "1"

    import squeezedzeno.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    ops: list[dict] = []
    span_files: list[str] = []

    def call(args: list[str], label: str, traced: bool = False, keep: bool = False) -> dict:
        out = os.path.join(tmp, f"{task}-{len(ops)}-{label}.out")
        args = [*args, "--out", out]
        if traced:
            with tracer.installed():
                start = time.perf_counter()
                code = tracer.run_main(args)
                wall = time.perf_counter() - start
            span_files.append(os.path.join(tmp, f"spans-{len(span_files)}.json"))
            tracer.dump(span_files[-1])
        else:
            start = time.perf_counter()
            code = cli.main(args)
            wall = time.perf_counter() - start
        with open(out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if not keep:
            os.remove(out)
        op = {"label": label, "wall_s": wall, "exit": code,
              "sha256": digest, "out": out if keep else None}
        ops.append(op)
        return op

    if task == "sweep":
        base = ["sweep", "--config", config, "--format", "csv"]
        units = [("t1", base + ["--threads", "1"]), ("t2", base + ["--threads", "2"])]
        warmup = [["sweep", "--threads", "1"], ["sweep", "--threads", "2"]]
    else:
        units = [("oracle", ["oracle", "--config", config, "--format", "json"])]
        tiny = os.path.join(tmp, "oracle-warmup.json")
        with open(tiny, "w") as fh:
            json.dump({"oracle": {"schedule": [[20, 1.0]]}}, fh)
        warmup = [["oracle", "--config", tiny, "--format", "json"]]
    for args in warmup:
        if cli.main([*args, "--out", os.path.join(tmp, "warmup.out")]) != 0:
            return 1

    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        keep = first or task == "oracle"
        for label, args in units:
            call(args, label, keep=keep)
        if trace:
            label, args = units[0]
            call(args, label + "-traced", traced=True, keep=task == "oracle")
        first = False

    with open(result_path, "w") as fh:
        json.dump({"ops": ops, "span_files": span_files}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
