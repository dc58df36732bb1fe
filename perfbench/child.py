"""The process under test: runs one ``repro`` command in-process.

Usage::

    python3 perfbench/child.py MARKS.json [--trace WORKLOAD] [--stop-at-setup] \\
        -- <repro arguments>

``repro.cli.main`` runs exactly as ``python -m repro`` would run it. A few
hooks stamp monotonic times that the benchmark needs from inside the
process (set-up ends at the first simulated day, or when the analysis
engine is handed its chunk tasks; a campaign day ends at its checkpoint).
With ``--trace`` the layer boundaries of :mod:`layers` are wrapped as
well. The marks, the peak RSS and any trace are written to MARKS.json
when the command returns.

``repro analyze`` with default flags runs its chunks in a process pool
when the host has more than two CPUs. Every hook is installed in this
process and inherited by the forked workers; each worker writes its own
spans next to MARKS.json after every task, and they are merged into the
trace at exit. Set-up ends in this process, before any worker starts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import (  # noqa: E402
    MISSING_EXIT,
    BoundaryMissing,
    Tracer,
    merge_trace,
    patch,
    resolve,
)

#: Where set-up ends, per command: a campaign's first simulated day, and
#: the analysis engine receiving its planned chunks (the first chunk is
#: read right after, in this process or in a pool worker).
SETUP_BOUNDARY = {
    "campaign": "repro.simulation.engine:SimulationEngine.run_day",
    "analyze": "repro.parallel.engine:ParallelAnalysisEngine.run_tasks",
}
CHECKPOINT = "repro.archive.store:ArchiveBundleStore.save_checkpoint"
#: Pool entry points of the analysis engine: a worker writes its spans
#: when one of them returns.
POOL_ENTRIES = (
    "repro.parallel.worker:run_chunk_batch",
    "repro.parallel.worker:run_chunk",
)


def write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


def install_marks(command: str, marks: dict, stop_at_setup, path: Path) -> None:
    target = SETUP_BOUNDARY.get(command)
    if target is None:
        return

    def on_entry(function):
        def wrapper(*args, **kwargs):
            now = time.monotonic()
            marks.setdefault("setup", now)
            if command == "campaign":
                marks["day_starts"].append(now)
            if stop_at_setup:
                write(path, {"rc": 0, **marks})
                os._exit(0)
            return function(*args, **kwargs)

        return wrapper

    patch(target, on_entry)
    if command == "campaign":
        marks["day_starts"] = []
        marks["checkpoints"] = []

        def on_exit(function):
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                marks["checkpoints"].append(time.monotonic())
                return result

            return wrapper

        patch(CHECKPOINT, on_exit)


def install_tracer(workload: str, workers_dir: Path) -> Tracer:
    from layers import BOUNDARIES, call_key

    for boundary in BOUNDARIES:
        resolve(boundary.target)  # every boundary must exist on every workload
    for target in POOL_ENTRIES:
        resolve(target)
    tracer = Tracer()
    for boundary in BOUNDARIES:
        if workload not in boundary.workloads:
            continue
        key = call_key(boundary)
        if boundary.records_span:
            patch(boundary.target, tracer.span(boundary.span, key, boundary.on_return))
        else:
            patch(boundary.target, tracer.hook(key, boundary.on_return))
    # A forked worker starts with no spans of its own and writes them all
    # each time a pool task returns, so the last write holds every span.
    os.register_at_fork(after_in_child=tracer.reset)
    parent = os.getpid()

    def export_from_worker(function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            if os.getpid() != parent:
                workers_dir.mkdir(exist_ok=True)
                staging = workers_dir / f".{os.getpid()}.json"
                write(staging, tracer.export())
                staging.replace(workers_dir / f"{os.getpid()}.json")
            return result

        return wrapper

    for target in POOL_ENTRIES:
        patch(target, export_from_worker)
    return tracer


def collect_trace(tracer: Tracer, workers_dir: Path) -> dict:
    """This process's trace with every pool worker's merged in."""
    trace = tracer.export()
    if workers_dir.is_dir():
        for path in sorted(workers_dir.glob("[0-9]*.json")):
            merge_trace(trace, json.loads(path.read_text()), process=path.stem)
    return trace


def main(argv: list[str]) -> int:
    marks_path = Path(argv[0])
    split = argv.index("--")
    options, command = argv[1:split], argv[split + 1 :]
    trace = options[options.index("--trace") + 1] if "--trace" in options else None
    marks: dict = {"t_start": time.monotonic()}
    workers_dir = marks_path.parent / "worker-traces"
    try:
        import repro.cli

        tracer = install_tracer(trace, workers_dir) if trace else None
        install_marks(command[0], marks, "--stop-at-setup" in options, marks_path)
    except BoundaryMissing as exc:
        print(f"perfbench: boundary missing: {exc}", file=sys.stderr)
        write(marks_path, {"rc": MISSING_EXIT, "error": f"boundary missing: {exc}"})
        return MISSING_EXIT
    marks["main_thread"] = threading.get_ident()
    try:
        rc = repro.cli.main(command)
    except KeyboardInterrupt:
        rc = 130
    marks["t_end"] = time.monotonic()
    marks["rc"] = rc
    marks["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The largest worker process this one started and waited for (the
    # analysis engine's pool); 0 when the command started none.
    marks["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if command[0] == "analyze":
        from repro.parallel import default_jobs

        marks["default_jobs"] = default_jobs()
    if tracer is not None:
        marks["trace"] = collect_trace(tracer, workers_dir)
    write(marks_path, marks)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
