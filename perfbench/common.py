"""Paths, child processes, statistics and the fixture cache.

The benchmark runs from the root of a checkout. It builds nothing: the
program under test is imported from ``src/`` by the child processes
(:mod:`child`). Everything the benchmark writes goes under ``.perfbench/``
at the root, which the repository's ``.gitignore`` excludes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import MISSING_EXIT

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = BENCH_DIR / "child.py"

#: A child that has not exited by then is killed and its operation fails.
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """A failure of the benchmark itself: no result line is printed."""


def require_source() -> None:
    """Refuse to run without the program's source next to the benchmark."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program source under {SRC}: run the benchmark from the "
            "root of a checkout that holds src/repro"
        )


def source_digest() -> str:
    """sha256 over every file of the program; keys the fixture cache."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def load_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def pinned() -> dict:
    """Scenario seeds, output digests and campaign length, fixed in git."""
    return load_json(BENCH_DIR / "pinned.json")


# --- statistics ------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; ``q=0.99`` of fewer than 100 values is the max."""
    if not values:
        raise BenchError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


# --- child processes -------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


@dataclass
class Child:
    """One process under test: ``child.py`` running a ``repro`` command."""

    proc: subprocess.Popen
    spawned: float
    marks_path: Path
    directory: Path

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        """Wait for exit; the child's marks, or ``{"rc": ...}`` on failure."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return {"rc": -9, "error": "timed out"}
        if self.marks_path.is_file():
            marks = load_json(self.marks_path)
            marks.setdefault("rc", self.proc.returncode)
            if marks["rc"] == MISSING_EXIT and "error" in marks:
                # A renamed boundary breaks the benchmark, not one operation.
                raise BenchError(marks["error"])
            return marks
        return {"rc": self.proc.returncode, "error": self.stderr_tail()}

    def interrupt(self) -> dict:
        """Ctrl-C the child (how ``repro api`` is stopped), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        return self.wait(timeout=30)

    def stderr_tail(self) -> str:
        path = self.directory / "stderr.txt"
        if not path.is_file():
            return ""
        return path.read_text(errors="replace")[-2000:]


def spawn(
    directory: Path,
    argv: list[str],
    trace: str | None = None,
    stop_at_setup: bool = False,
) -> Child:
    """Start ``repro <argv>`` under :mod:`child` with stdout/stderr in files."""
    directory.mkdir(parents=True, exist_ok=True)
    marks_path = directory / "marks.json"
    command = [sys.executable, str(CHILD), str(marks_path)]
    if trace:
        command += ["--trace", trace]
    if stop_at_setup:
        command.append("--stop-at-setup")
    command += ["--", *argv]
    with open(directory / "stdout.txt", "wb") as out, open(
        directory / "stderr.txt", "wb"
    ) as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command,
            cwd=directory,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
    return Child(proc, spawned, marks_path, directory)


def file_bytes(path: Path) -> int:
    """Size of a SQLite database including any write-ahead log beside it."""
    total = 0
    for candidate in (path, Path(f"{path}-wal")):
        if candidate.is_file():
            total += candidate.stat().st_size
    return total


def copy_database(source: Path, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    for suffix in ("", "-wal", "-shm"):
        origin = Path(f"{source}{suffix}")
        if origin.is_file():
            shutil.copyfile(origin, Path(f"{target}{suffix}"))


# --- campaign outputs --------------------------------------------------------

#: Files a campaign writes whose bytes are pinned per scenario seed.
DIGESTED = (
    "report.txt",
    "figure1.csv",
    "figure2.csv",
    "figure3.csv",
    "figure4.csv",
    "bundles.jsonl",
    "transactions.jsonl",
    "summary.json",
)


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each pinned output; ``summary.json`` without its timing."""
    digests = {}
    for name in DIGESTED:
        path = out_dir / name
        if not path.is_file():
            digests[name] = "missing"
            continue
        data = path.read_bytes()
        if name == "summary.json":
            summary = json.loads(data)
            summary.pop("elapsed_seconds", None)
            data = json.dumps(summary, sort_keys=True).encode()
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def campaign_argv(directory: Path, seed: int, days: int) -> list[str]:
    """``repro campaign --archive`` of the paper scenario, default flags."""
    return [
        "campaign",
        "--archive",
        str(directory / "archive.db"),
        "--out",
        str(directory / "out"),
        "--days",
        str(days),
        "--seed",
        str(seed),
    ]


# --- fixtures ----------------------------------------------------------------


class Fixtures:
    """Archives the ``analyze`` and ``api`` workloads start from.

    A fixture is what ``repro campaign --archive`` of the campaign
    workload's configuration writes for one scenario seed, built by the
    program under test. It is cached under ``.perfbench/fixtures`` keyed by
    the sha256 of ``src/`` and the seed, so a cached archive is only ever
    read by the same program that wrote it.
    """

    def __init__(self, days: int) -> None:
        self.days = days
        self.root = WORK / "fixtures" / source_digest()[:20]

    def path(self, seed: int) -> Path:
        return self.root / f"days{self.days}-seed{seed}"

    def adopt(self, seed: int, run_dir: Path, build_s: float) -> None:
        """Keep a finished campaign run's outputs as the seed's fixture."""
        target = self.path(seed)
        if (target / "meta.json").is_file():
            return
        staging = target.with_name(target.name + ".staging")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        copy_database(run_dir / "archive.db", staging / "archive.db")
        shutil.copytree(run_dir / "out", staging / "out")
        (staging / "meta.json").write_text(json.dumps({"build_s": build_s}))
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)

    def campaign(self, seed: int) -> tuple[Path, float]:
        """The seed's fixture directory and the seconds it took to build."""
        target = self.path(seed)
        if not (target / "meta.json").is_file():
            run_dir = WORK / "tmp" / f"fixture-{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            child = spawn(run_dir, campaign_argv(run_dir, seed, self.days))
            marks = child.wait()
            if marks.get("rc") != 0:
                raise BenchError(
                    f"fixture campaign for seed {seed} failed: "
                    f"{marks.get('error') or child.stderr_tail()}"
                )
            self.adopt(seed, run_dir, marks["t_end"] - child.spawned)
            shutil.rmtree(run_dir, ignore_errors=True)
        return target, load_json(target / "meta.json")["build_s"]

    def analyzed(self, seed: int) -> tuple[Path, float]:
        """The fixture archive after one default ``repro analyze`` pass."""
        fixture, build_s = self.campaign(seed)
        analyzed = fixture / "analyzed.db"
        meta = fixture / "analyzed.json"
        if not meta.is_file():
            run_dir = WORK / "tmp" / f"analyzed-{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            copy_database(fixture / "archive.db", run_dir / "analyzed.db")
            child = spawn(run_dir, ["analyze", "--store", str(run_dir / "analyzed.db")])
            marks = child.wait()
            if marks.get("rc") != 0:
                raise BenchError(
                    f"fixture analyze for seed {seed} failed: "
                    f"{marks.get('error') or child.stderr_tail()}"
                )
            copy_database(run_dir / "analyzed.db", analyzed)
            meta.write_text(
                json.dumps({"build_s": marks["t_end"] - child.spawned})
            )
            shutil.rmtree(run_dir, ignore_errors=True)
        return analyzed, build_s + load_json(meta)["build_s"]
