"""The three workloads: ``campaign``, ``analyze`` and ``api``.

Each runs the ``repro`` CLI with default flags as a user would, checks its
outputs, and returns the end-to-end metrics (untraced) or the per-layer
metrics (traced, in a separate run).

Every workload is a closed loop at two loads: *light* runs one operation
at a time and *heavy* runs ``nproc`` at once. Latency is per operation (a
simulated day of a campaign, a whole ``analyze`` invocation, an API
request) and the rate is operations completed per second under heavy
load. ``campaign`` and ``analyze`` alternate the two loads until the run's
seconds are spent; ``api`` runs a number of rounds fixed by the seconds
alone, so that two programs are measured on the same number of rounds.
Every figure pools the whole run: quantiles over all its operations,
rates over all its heavy phases, medians over its repeats.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
from common import (
    BenchError,
    Child,
    Fixtures,
    campaign_argv,
    copy_database,
    file_bytes,
    load_json,
    median,
    output_digests,
    quantile,
    spawn,
)
from layers import layer_metrics, silent_boundaries
from tracer import self_time_within, summarize

#: Set-up-only starts per campaign run, beside each full campaign's set-up.
SETUP_PROBES = 3
#: Traced ``analyze`` passes, each beside an untraced one.
TRACED_PASSES = 5
#: API rounds: each measures the mix with one connection (light), with
#: ``nproc`` connections (heavy) and a full scan. A run makes one round per
#: ``ROUND_BUDGET_S`` of its seconds (about 2 s each on a 2-vCPU host), at
#: least ``MIN_ROUNDS``.
ROUND_BUDGET_S = 2.5
MIN_ROUNDS = 4
#: Server processes an untraced API run starts one after another; the
#: rounds are shared out over them.
API_SERVERS = 3
#: A measurement is invalid when the generator's own send lag exceeds these.
LAG_P50_LIMIT_MS = 1.0
LAG_P99_LIMIT_MS = 5.0
#: Client ids the mix rotates through, so no client nears the per-client
#: limit (50 req/s) however fast the server answers.
CLIENT_IDS = 512


@dataclass
class Context:
    seed: int
    scenario_seed: int
    seconds: float
    days: int
    nproc: int
    run_dir: Path
    fixtures: Fixtures
    pinned_digests: dict
    #: Requests per API measurement (one load of one round).
    requests: int


@dataclass
class Result:
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.correct = False
        self.notes.append("FAILED: " + message)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _peak_mb(marks: dict) -> float:
    """Peak RSS of the process under test plus its largest worker process."""
    return (marks.get("maxrss_kb", 0) + marks.get("children_maxrss_kb", 0)) / 1024.0


# --- campaign ----------------------------------------------------------------


@dataclass
class CampaignRun:
    directory: Path
    marks: dict
    spawned: float
    error: str = ""
    digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def setup_s(self) -> float:
        return self.marks["setup"] - self.spawned

    @property
    def wall_s(self) -> float:
        return self.marks["t_end"] - self.marks["setup"]

    @property
    def day_latencies(self) -> list[float]:
        checkpoints = self.marks["checkpoints"]
        latencies = []
        for start in self.marks["day_starts"]:
            end = next(t for t in checkpoints if t >= start)
            latencies.append(end - start)
        return latencies

    @property
    def summary(self) -> dict:
        return load_json(self.directory / "out" / "summary.json")

    @property
    def bytes_per_bundle(self) -> float:
        bundles = self.summary["collection"]["bundles_collected"]
        return file_bytes(self.directory / "archive.db") / bundles


def run_campaigns(ctx: Context, count: int, tag: str, trace: str | None = None):
    """``count`` campaigns at once, each checked; returns their runs."""
    children: list[Child] = []
    for index in range(count):
        directory = ctx.run_dir / f"{tag}-{index}"
        children.append(
            spawn(directory, campaign_argv(directory, ctx.scenario_seed, ctx.days), trace)
        )
    runs = []
    for child in children:
        marks = child.wait()
        run = CampaignRun(child.directory, marks, child.spawned)
        if marks.get("rc") != 0:
            run.error = f"exit {marks.get('rc')}: {marks.get('error') or child.stderr_tail()}"
        elif len(marks["day_starts"]) != ctx.days:
            run.error = f"{len(marks['day_starts'])} simulated days, expected {ctx.days}"
        else:
            run.digests = output_digests(child.directory / "out")
            run.error = _check_digests(ctx, run.digests)
        runs.append(run)
    return runs


def _check_digests(ctx: Context, digests: dict) -> str:
    """Outputs must match the digests pinned for the scenario seed."""
    if digests != ctx.pinned_digests:
        changed = sorted(k for k in digests if digests[k] != ctx.pinned_digests.get(k))
        return f"outputs differ from the pinned digests: {', '.join(changed)}"
    return ""


def _tally(result: Result, runs: list[CampaignRun]) -> list[CampaignRun]:
    result.attempted += len(runs)
    good = []
    for run in runs:
        if run.ok:
            good.append(run)
        else:
            result.failed += 1
            result.fail(f"{run.directory.name}: {run.error}")
    if len({json.dumps(run.digests, sort_keys=True) for run in good}) > 1:
        result.fail("campaigns of one seed wrote different outputs")
    return good


def setup_probes(ctx: Context, argv: list[str], count: int) -> list[float]:
    """Start the command ``count`` times, stopping each at the end of set-up."""
    samples = []
    for index in range(count):
        directory = ctx.run_dir / f"probe-{index}"
        child = spawn(directory, argv(directory), stop_at_setup=True)
        marks = child.wait()
        if "setup" not in marks:
            raise BenchError(f"set-up probe failed: {marks.get('error') or child.stderr_tail()}")
        samples.append(marks["setup"] - child.spawned)
        shutil.rmtree(directory, ignore_errors=True)
    return samples


def _heavy_span(runs: list[CampaignRun]) -> float:
    """Seconds from the first set-up end to the last checkpoint of a batch."""
    return max(run.marks["checkpoints"][-1] for run in runs) - min(
        run.marks["setup"] for run in runs
    )


def campaign(ctx: Context) -> Result:
    result = Result()
    started = time.monotonic()
    argv = lambda d: campaign_argv(d, ctx.scenario_seed, ctx.days)  # noqa: E731
    probes = setup_probes(ctx, argv, SETUP_PROBES)
    # Light and heavy alternate, so both loads sample the whole run and a
    # slower stretch of the host shifts them alike. A phase starts only if
    # the last one of its kind would still end within the run's seconds;
    # every run has at least one of each.
    light: list[CampaignRun] = []
    heavy: list[list[CampaignRun]] = []
    took = [0.0, 0.0]  # seconds of the last light and the last heavy phase
    for index in itertools.count():
        is_heavy = index % 2
        if index >= 2 and time.monotonic() - started + took[is_heavy] > ctx.seconds:
            break
        phase_started = time.monotonic()
        runs = _tally(
            result, run_campaigns(ctx, ctx.nproc if is_heavy else 1, f"phase-{index}")
        )
        took[is_heavy] = time.monotonic() - phase_started
        if result.failed:
            return result
        if is_heavy:
            heavy.append(runs)
        else:
            light += runs
    first = light[0]
    ctx.fixtures.adopt(ctx.scenario_seed, first.directory, first.marks["t_end"] - first.spawned)
    heavy_runs = [run for batch in heavy for run in batch]
    heavy_days = sum(len(run.marks["day_starts"]) for run in heavy_runs)
    light_days = [d for run in light for d in run.day_latencies]
    heavy_days_lat = [d for run in heavy_runs for d in run.day_latencies]
    result.metrics = {
        "setup_s": median(probes + [run.setup_s for run in light]),
        "wall_s": median([run.wall_s for run in light]),
        "peak_rss_mb": median([_peak_mb(run.marks) for run in light]),
        "archive_bytes_per_bundle": first.bytes_per_bundle,
        "latency_p50_ms.light": _ms(quantile(light_days, 0.5)),
        "latency_p90_ms.light": _ms(quantile(light_days, 0.9)),
        "latency_p50_ms.heavy": _ms(quantile(heavy_days_lat, 0.5)),
        "latency_p90_ms.heavy": _ms(quantile(heavy_days_lat, 0.9)),
        "max_rate_rps": heavy_days / sum(_heavy_span(batch) for batch in heavy),
    }
    summary = first.summary
    result.notes += [
        f"scenario seed {ctx.scenario_seed}, {ctx.days} days: "
        f"{summary['collection']['bundles_collected']} bundles collected, "
        f"{summary['sandwiches']} sandwiches",
        f"campaigns: {len(light)} alone, {len(heavy)} batch(es) of {ctx.nproc} at once; "
        f"set-up samples {len(probes) + len(light)}; day samples "
        f"{len(light_days)} light, {len(heavy_days_lat)} heavy",
        "digests: match pinned",
    ]
    return result


def campaign_traced(ctx: Context) -> Result:
    result = Result()
    untraced = _tally(result, run_campaigns(ctx, 1, "untraced"))
    traced = _tally(result, run_campaigns(ctx, 1, "traced", trace="campaign"))
    if not untraced or not traced:
        return result
    run = traced[0]
    trace = run.marks["trace"]
    _require_calls(trace, "campaign")
    summary = summarize(trace)
    window = run.wall_s
    accounted = self_time_within(
        trace, run.marks["main_thread"], run.marks["setup"], run.marks["t_end"]
    )
    metrics = layer_metrics(summary, trace["counts"])
    metrics.update(
        {
            "archive.db_bytes": float(file_bytes(run.directory / "archive.db")),
            "unaccounted_s": window - accounted,
            "trace_overhead_s": window - untraced[0].wall_s,
        }
    )
    result.metrics = metrics
    result.notes += _span_table(summary, window)
    return result


def _require_calls(trace: dict, workload: str) -> None:
    silent = silent_boundaries(trace["counts"], workload)
    if silent:
        raise BenchError(
            f"boundaries that {workload} must exercise recorded no call: "
            + ", ".join(silent)
        )


def _span_table(summary: dict, window: float) -> list[str]:
    lines = [f"{'span':28} {'calls':>9} {'self s':>9} {'share':>7}"]
    for name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        share = entry["self_s"] / window if window else 0.0
        lines.append(
            f"{name:28} {entry['calls']:9d} {entry['self_s']:9.4f} {share:7.1%}"
        )
    return lines


# --- analyze -----------------------------------------------------------------

_HEADLINE = {
    "bundles": re.compile(r"^bundles:\s+(\d+)$", re.M),
    "sandwiches": re.compile(r"^sandwiches:\s+(\d+)$", re.M),
    "victim_loss_usd": re.compile(r"^victim losses:\s+\$([\d,.]+)$", re.M),
    "attacker_gain_usd": re.compile(r"^attacker gains:\s+\$([\d,.]+)$", re.M),
    "defensive_bundles": re.compile(r"^defensive bundles:\s+(\d+) ", re.M),
    "defensive_spend_usd": re.compile(r"^defensive spend:\s+\$([\d,.]+)$", re.M),
}


def _close(text: str, expected: float) -> bool:
    """A rendered number equals ``expected`` to the digits it shows."""
    value = float(text.replace(",", ""))
    places = len(text.partition(".")[2])
    return abs(value - expected) <= 0.5 * 10.0 ** -places + 1e-9


def headline_mismatches(output: str, summary: dict) -> list[str]:
    """Headline figures ``repro analyze`` printed that differ from the
    fixture campaign's ``summary.json``."""
    expected = {
        "bundles": summary["collection"]["bundles_collected"],
        "sandwiches": summary["sandwiches"],
        "victim_loss_usd": summary["victim_loss_usd"],
        "attacker_gain_usd": summary["attacker_gain_usd"],
        "defensive_bundles": summary["defensive_bundles"],
        "defensive_spend_usd": summary["defensive_spend_usd"],
    }
    wrong = []
    for key, pattern in _HEADLINE.items():
        match = pattern.search(output)
        if match is None or not _close(match.group(1), expected[key]):
            wrong.append(f"{key}={match.group(1) if match else 'missing'}")
    return wrong


@dataclass
class Pass:
    marks: dict
    spawned: float
    db_bytes: int
    error: str = ""

    @property
    def setup_s(self) -> float:
        return self.marks["setup"] - self.spawned

    @property
    def wall_s(self) -> float:
        return self.marks["t_end"] - self.marks["setup"]

    @property
    def latency_s(self) -> float:
        return self.marks["t_end"] - self.spawned


def run_passes(ctx: Context, fixture: Path, summary: dict, count: int, tag: str,
               trace: str | None = None) -> list[Pass]:
    """``count`` concurrent ``repro analyze`` passes, each on a fresh copy of
    the fixture bytes (a pass persists into the archive it reads)."""
    children = []
    for index in range(count):
        directory = ctx.run_dir / f"{tag}-{index}"
        copy_database(fixture / "archive.db", directory / "work.db")
        children.append(
            spawn(directory, ["analyze", "--store", str(directory / "work.db")], trace)
        )
    passes = []
    for child in children:
        marks = child.wait()
        work = child.directory / "work.db"
        result = Pass(marks, child.spawned, file_bytes(work))
        if marks.get("rc") != 0:
            result.error = f"exit {marks.get('rc')}: {marks.get('error') or child.stderr_tail()}"
        elif "setup" not in marks:
            result.error = "the analysis engine was handed no chunk tasks"
        else:
            stdout = (child.directory / "stdout.txt").read_text()
            wrong = headline_mismatches(stdout, summary)
            if wrong:
                result.error = "headline differs from the campaign: " + ", ".join(wrong)
        passes.append(result)
        shutil.rmtree(child.directory, ignore_errors=True)
    return passes


def _tally_passes(result: Result, passes: list[Pass]) -> list[Pass]:
    result.attempted += len(passes)
    for item in passes:
        if item.error:
            result.failed += 1
            result.fail(item.error)
    return [item for item in passes if not item.error]


def _interleaved(ctx: Context, result: Result, fixture: Path,
                 summary: dict) -> tuple[list[Pass], list[Pass], float]:
    """One pass alone, then ``nproc`` at once, repeated for the run's
    seconds (at least twice), so both loads sample the whole run. Returns
    the light passes, the heavy passes and the seconds spent on heavy."""
    light: list[Pass] = []
    heavy: list[Pass] = []
    heavy_s = 0.0
    started = time.monotonic()
    round_index = 0
    while round_index < 2 or time.monotonic() - started < ctx.seconds:
        light += _tally_passes(
            result, run_passes(ctx, fixture, summary, 1, f"light-{round_index}")
        )
        batch_started = time.monotonic()
        heavy += _tally_passes(
            result, run_passes(ctx, fixture, summary, ctx.nproc, f"heavy-{round_index}")
        )
        heavy_s += time.monotonic() - batch_started
        round_index += 1
        if result.failed:
            break
    return light, heavy, heavy_s


def analyze(ctx: Context) -> Result:
    result = Result()
    fixture, build_s = ctx.fixtures.campaign(ctx.scenario_seed)
    summary = load_json(fixture / "out" / "summary.json")
    light, heavy, heavy_wall = _interleaved(ctx, result, fixture, summary)
    if not light or not heavy:
        return result
    bundles = summary["collection"]["bundles_collected"]
    light_s = [p.latency_s for p in light]
    heavy_s = [p.latency_s for p in heavy]
    result.metrics = {
        "setup_s": median([p.setup_s for p in light]),
        "wall_s": median([p.wall_s for p in light]),
        "peak_rss_mb": median([_peak_mb(p.marks) for p in light]),
        "archive_bytes_per_bundle": light[0].db_bytes / bundles,
        "latency_p50_ms.light": _ms(quantile(light_s, 0.5)),
        "latency_p90_ms.light": _ms(quantile(light_s, 0.9)),
        "latency_p50_ms.heavy": _ms(quantile(heavy_s, 0.5)),
        "latency_p90_ms.heavy": _ms(quantile(heavy_s, 0.9)),
        "max_rate_rps": len(heavy) / heavy_wall,
    }
    result.notes += [
        f"fixture: scenario seed {ctx.scenario_seed}, {bundles} bundles, "
        f"built in {build_s:.2f} s (not part of set-up)",
        _engine_path(light[0]),
        f"passes: {len(light)} alone, {len(heavy)} in rounds of {ctx.nproc}",
        "headline matches the fixture campaign's summary.json",
    ]
    return result


def _engine_path(item: Pass) -> str:
    jobs = item.marks["default_jobs"]
    if jobs == 1:
        return "engine path: in-process (default --jobs 1)"
    return f"engine path: process pool (default --jobs {jobs})"


def analyze_traced(ctx: Context) -> Result:
    result = Result()
    fixture, build_s = ctx.fixtures.campaign(ctx.scenario_seed)
    summary = load_json(fixture / "out" / "summary.json")
    untraced = []
    traced = []
    for index in range(TRACED_PASSES):
        untraced += _tally_passes(
            result, run_passes(ctx, fixture, summary, 1, f"untraced-{index}")
        )
        traced += _tally_passes(
            result, run_passes(ctx, fixture, summary, 1, f"traced-{index}", "analyze")
        )
    if not untraced or not traced:
        return result
    per_pass = []
    profiles = []
    for item in traced:
        trace = item.marks["trace"]
        _require_calls(trace, "analyze")
        metrics = layer_metrics(summarize(trace), trace["counts"])
        accounted = self_time_within(
            trace, item.marks["main_thread"], item.marks["setup"], item.marks["t_end"]
        )
        metrics["unaccounted_s"] = item.wall_s - accounted
        metrics["archive.db_bytes"] = float(item.db_bytes)
        per_pass.append(metrics)
        profiles += trace["extras"].get("stage_profile", [])
    result.metrics = {
        name: sum(m[name] for m in per_pass) / len(per_pass) for name in per_pass[0]
    }
    result.metrics["trace_overhead_s"] = median([p.wall_s for p in traced]) - median(
        [p.wall_s for p in untraced]
    )
    result.metrics["fixture.build_s"] = build_s
    result.notes.append(_engine_path(traced[0]))
    result.notes += _span_table(
        summarize(traced[0].marks["trace"]), traced[0].wall_s
    )
    if profiles:
        result.notes.append(
            "engine stage_profile (first pass): " + json.dumps(profiles[0], sort_keys=True)
        )
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    return result


# --- api -----------------------------------------------------------------------

_PORT = re.compile(r"http://127\.0\.0\.1:(\d+)")


@dataclass
class Server:
    child: Child
    port: int
    setup_s: float
    runs: list = field(default_factory=list)

    def run(self, requests: list[loadgen.Request], connections: int) -> loadgen.RunResult:
        outcome = loadgen.run(self.port, requests, connections)
        self.runs.append(outcome)
        return outcome

    def get(self, path: str):
        request = loadgen.Request("probe", loadgen.encode_get(path, "bench"),
                                  lambda s, b: True)
        outcome = loadgen.run(self.port, [request], 1, keep_raw=True)
        self.runs.append(outcome)
        return loadgen.split_response(outcome.raw[0])


@contextmanager
def separate_cpus(server: Server):
    """Pin the generator to one CPU and every thread of the server to the
    others until the block ends. The generator never sleeps, so a server
    woken on its CPU waits for it: with the generator pinned and the server
    left free, latencies doubled on a 2-vCPU host. A host with a single CPU
    is left as it is."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        yield
        return
    first, *rest = sorted(cpus)
    os.sched_setaffinity(0, {first})
    try:
        # Threads the server starts later inherit the mask of their creator.
        for task in (Path("/proc") / str(server.child.proc.pid) / "task").iterdir():
            try:
                os.sched_setaffinity(int(task.name), set(rest))
            except ProcessLookupError:
                pass
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def start_server(ctx: Context, db: Path, tag: str, trace: str | None = None) -> Server:
    """Start ``repro api --db`` and time it until ``/healthz`` answers 200."""
    directory = ctx.run_dir / tag
    child = spawn(directory, ["api", "--db", str(db)], trace)
    stdout = directory / "stdout.txt"
    deadline = child.spawned + 60.0
    port = None
    while time.monotonic() < deadline and child.proc.poll() is None:
        if port is None:
            match = _PORT.search(stdout.read_text())
            port = int(match.group(1)) if match else None
        if port is not None:
            status, _h, _b = loadgen.get(port, "/healthz")
            if status == 200:
                return Server(child, port, time.monotonic() - child.spawned)
        time.sleep(0.002)
    child.proc.kill()
    child.proc.wait()
    raise BenchError(f"repro api did not answer /healthz: {child.stderr_tail()}")


_HOT = (
    "/v1/financials",
    "/v1/status",
    "/v1/aggregates/daily",
    "/v1/aggregates/lengths",
    "/v1/aggregates/tips",
    "/v1/aggregates/attackers",
    "/v1/aggregates/defensive",
)
#: Request mix shares: hot set (fits the response cache), revalidations,
#: then a cold key space far larger than the cache. No traffic log of the
#: API exists to draw them from; they are assumptions, chosen so that
#: cached and uncached work each carry a large share of the time (see
#: METRICS.md). Latency is also reported per kind, so a change in one
#: route shows whatever the mix.
_SHARES = (
    ("hot", 0.45),
    ("revalidate", 0.15),
    ("bundle", 0.22),
    ("detection", 0.05),
    ("page", 0.13),
)
PAGE_LIMIT = 20
SCAN_LIMIT = 1000


@dataclass
class Catalog:
    """What discovery learned from the served archive."""

    bundle_ids: list[str]
    detection_ids: list[str]
    hot: dict[str, tuple[str, str]]  # path -> (sha256 of body, etag)

    @property
    def total(self) -> int:
        return len(self.bundle_ids)


def _sha(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def discover(server: Server) -> Catalog:
    """Read the id space and the hot set's bodies and ETags."""
    status, _h, body = server.get("/v1/status")
    if status != 200:
        raise BenchError(f"/v1/status answered {status}")
    total = json.loads(body)["status"]["bundles"]
    bundle_ids: list[str] = []
    for offset in range(0, total, SCAN_LIMIT):
        _s, _h, body = server.get(f"/v1/bundles?limit={SCAN_LIMIT}&offset={offset}")
        bundle_ids += [item["bundleId"] for item in json.loads(body)["items"]]
    detection_ids: list[str] = []
    while True:
        _s, _h, body = server.get(
            f"/v1/detections?limit={SCAN_LIMIT}&offset={len(detection_ids)}"
        )
        items = json.loads(body)["items"]
        detection_ids += [item["bundleId"] for item in items]
        if len(items) < SCAN_LIMIT:
            break
    hot = {}
    for path in _HOT:
        status, headers, body = server.get(path)
        if status != 200 or "etag" not in headers:
            raise BenchError(f"{path} answered {status}")
        hot[path] = (_sha(body), headers["etag"])
    return Catalog(bundle_ids, detection_ids, hot)


def api_mismatches(server: Server, summary: dict) -> list[str]:
    """``/v1/financials`` and ``/v1/status`` against the campaign headline."""
    _s, _h, body = server.get("/v1/financials")
    financials = json.loads(body)["financials"]
    _s, _h, body = server.get("/v1/status")
    status = json.loads(body)["status"]
    checks = [
        ("bundlesCollected", financials["bundlesCollected"],
         summary["collection"]["bundles_collected"]),
        ("sandwichCount", financials["sandwichCount"], summary["sandwiches"]),
        ("victimLossUsd", financials["victimLossUsd"], summary["victim_loss_usd"]),
        ("attackerGainUsd", financials["attackerGainUsd"], summary["attacker_gain_usd"]),
        ("defensiveBundles", financials["defensiveBundles"], summary["defensive_bundles"]),
        ("defensiveSpendUsd", financials["defensiveSpendUsd"],
         summary["defensive_spend_usd"]),
        ("status.bundles", status["bundles"], summary["collection"]["bundles_collected"]),
        ("status.sandwiches", status["sandwiches"], summary["sandwiches"]),
    ]
    return [
        f"{name}={served} (campaign {expected})"
        for name, served, expected in checks
        if not _close(str(served), expected)
    ]


def by_kind(outcomes: list[loadgen.Outcome]) -> dict[str, tuple[float, float, int]]:
    """Per request kind: p50 and p90 latency in ms and the sample count."""
    latencies: dict[str, list[float]] = {}
    for outcome in outcomes:
        latency = outcome.latency if outcome.ok else float("inf")
        latencies.setdefault(outcome.kind, []).append(latency)
    return {
        kind: (_ms(quantile(values, 0.5)), _ms(quantile(values, 0.9)), len(values))
        for kind, values in latencies.items()
    }


def _page_check(expected: int):
    return lambda status, body: status == 200 and body.count(b'"bundleId"') == expected


def mix_kinds(count: int, rng: random.Random) -> list[str]:
    """``count`` request kinds in exactly the mix's shares, shuffled.

    Exact counts, not independent draws: the tail quantiles fall where one
    kind's latencies give way to the next, so a round that drew a few more
    pages than another would move them by the draw alone."""
    quotas = [(kind, share * count) for kind, share in _SHARES]
    counts = {kind: int(quota) for kind, quota in quotas}
    # Largest remainders take the requests that rounding down left over.
    by_remainder = sorted(quotas, key=lambda item: item[1] - int(item[1]), reverse=True)
    for kind, _quota in by_remainder[: count - sum(counts.values())]:
        counts[kind] += 1
    kinds = [kind for kind, _ in _SHARES for _ in range(counts[kind])]
    rng.shuffle(kinds)
    return kinds


def build_mix(catalog: Catalog, rng: random.Random, count: int) -> list[loadgen.Request]:
    """``count`` requests of the mix, each with its response check."""
    requests = []
    for kind in mix_kinds(count, rng):
        client = f"bench-{rng.randrange(CLIENT_IDS)}"
        if kind in ("hot", "revalidate"):
            path = rng.choice(_HOT)
            digest, etag = catalog.hot[path]
            if kind == "hot":
                check = lambda s, b, d=digest: s == 200 and _sha(b) == d  # noqa: E731
                data = loadgen.encode_get(path, client)
            else:
                check = lambda s, b: s == 304  # noqa: E731
                data = loadgen.encode_get(path, client, etag)
        elif kind == "bundle" or (kind == "detection" and not catalog.detection_ids):
            bundle_id = rng.choice(catalog.bundle_ids)
            marker = f'"bundleId":"{bundle_id}"'.encode()
            check = lambda s, b, m=marker: s == 200 and m in b  # noqa: E731
            data = loadgen.encode_get(f"/v1/bundles/{bundle_id}", client)
        elif kind == "detection":
            bundle_id = rng.choice(catalog.detection_ids)
            marker = bundle_id.encode()
            check = lambda s, b, m=marker: s == 200 and m in b  # noqa: E731
            data = loadgen.encode_get(f"/v1/detections/{bundle_id}", client)
        else:
            offset = rng.randrange(catalog.total)
            check = _page_check(min(PAGE_LIMIT, catalog.total - offset))
            data = loadgen.encode_get(
                f"/v1/bundles?limit={PAGE_LIMIT}&offset={offset}", client
            )
        requests.append(loadgen.Request(kind, data, check))
    return requests


def scan_requests(catalog: Catalog, shift: int) -> list[loadgen.Request]:
    """Every bundle in pages of 1,000, offsets shifted by ``shift`` so that
    each scan of a run reads the archive instead of the response cache."""
    return [
        loadgen.Request(
            "scan",
            loadgen.encode_get(f"/v1/bundles?limit={SCAN_LIMIT}&offset={offset}", "scan"),
            _page_check(min(SCAN_LIMIT, catalog.total - offset)),
        )
        for offset in range(shift, catalog.total, SCAN_LIMIT)
    ]


def warm(server: Server, catalog: Catalog) -> tuple[int, float]:
    """Request every hot key, plain and revalidated, before a measurement."""
    requests = []
    for path, (_digest, etag) in catalog.hot.items():
        requests.append(loadgen.Request("warm", loadgen.encode_get(path, "warm"),
                                        lambda s, b: s == 200))
        requests.append(loadgen.Request("warm", loadgen.encode_get(path, "warm", etag),
                                        lambda s, b: s == 304))
    outcome = server.run(requests, 1)
    if outcome.failed:
        raise BenchError("cache warm-up requests failed")
    return len(requests), outcome.wall


def pooled_latencies(levels: list["Level"]) -> list[float]:
    """Every request's latency over ``levels``; a failed one counts as
    infinitely slow, so it misses any latency limit."""
    return [latency for level in levels for latency in level.latencies]


@dataclass
class Level:
    """One closed-loop measurement of the mix at one concurrency."""

    connections: int
    outcome: loadgen.RunResult
    warm_requests: int
    warm_s: float

    @property
    def latencies(self) -> list[float]:
        # A failed request misses any latency limit.
        return [o.latency if o.ok else float("inf") for o in self.outcome.outcomes]

    @property
    def p50_ms(self) -> float:
        return _ms(quantile(self.latencies, 0.5))

    @property
    def p90_ms(self) -> float:
        return _ms(quantile(self.latencies, 0.9))

    @property
    def rate(self) -> float:
        return len(self.outcome.outcomes) / self.outcome.wall

    @property
    def lags(self) -> list[float]:
        return [o.lag for o in self.outcome.outcomes]

    @property
    def valid(self) -> bool:
        """False when the generator itself was slow to send."""
        return (
            _ms(quantile(self.lags, 0.5)) <= LAG_P50_LIMIT_MS
            and _ms(quantile(self.lags, 0.99)) <= LAG_P99_LIMIT_MS
        )

    def describe(self) -> str:
        lags = self.lags
        return (
            f"{self.connections} connection(s): p50 {self.p50_ms:6.3f} ms, "
            f"p90 {self.p90_ms:7.3f} ms, {self.rate:6.0f} req/s, "
            f"failed {self.outcome.failed}, lag p50/max "
            f"{_ms(quantile(lags, 0.5)):.3f}/{_ms(max(lags)):.3f} ms, in flight <= "
            f"{self.outcome.in_flight_max}, warm-up {self.warm_requests} req in "
            f"{self.warm_s * 1000:.1f} ms" + ("" if self.valid else "  [INVALID]")
        )


def measure(ctx: Context, server: Server, catalog: Catalog, rng: random.Random,
            connections: int) -> Level:
    """Warm the cache, then run the mix; again once if the generator lagged."""
    for _ in range(2):
        warm_requests, warm_s = warm(server, catalog)
        outcome = server.run(build_mix(catalog, rng, ctx.requests), connections)
        level = Level(connections, outcome, warm_requests, warm_s)
        if level.valid:
            break
    return level


@dataclass
class Rounds:
    light: list[Level] = field(default_factory=list)
    heavy: list[Level] = field(default_factory=list)
    scans: list[loadgen.RunResult] = field(default_factory=list)

    def extend(self, other: "Rounds") -> None:
        self.light += other.light
        self.heavy += other.heavy
        self.scans += other.scans

    @property
    def measured(self) -> list[loadgen.RunResult]:
        return [level.outcome for level in self.light + self.heavy] + self.scans

    def light_by_kind(self) -> dict[str, tuple[float, float, int]]:
        """Per-kind latency over every request sent on one connection."""
        return by_kind(
            [o for level in self.light for o in level.outcome.outcomes]
            + [o for scan in self.scans for o in scan.outcomes]
        )


def rounds_for(seconds: float) -> int:
    """API rounds per run: set by ``--seconds`` alone, the same on every
    program, so two programs are measured on the same amount of work."""
    return max(MIN_ROUNDS, int(seconds / ROUND_BUDGET_S))


def run_rounds(ctx: Context, server: Server, catalog: Catalog, rng: random.Random,
               rounds: int) -> Rounds:
    """``rounds`` rounds, each light, heavy and a full scan, so that every
    load samples the same stretches of the host."""
    result = Rounds()
    for shift in range(rounds):
        result.light.append(measure(ctx, server, catalog, rng, 1))
        result.heavy.append(measure(ctx, server, catalog, rng, ctx.nproc))
        result.scans.append(server.run(scan_requests(catalog, shift + 1), 1))
    return result


def _kind_lines(rounds: Rounds) -> list[str]:
    return [
        f"  {kind:10} p50 {p50:7.3f} ms, p90 {p90:7.3f} ms ({count} requests)"
        for kind, (p50, p90, count) in sorted(rounds.light_by_kind().items())
    ]


def _serve_fixture(ctx: Context):
    db, build_s = ctx.fixtures.analyzed(ctx.scenario_seed)
    fixture = ctx.fixtures.path(ctx.scenario_seed)
    summary = load_json(fixture / "out" / "summary.json")
    return db, build_s, summary


def _tally_requests(result: Result, runs: list[loadgen.RunResult]) -> None:
    result.attempted += sum(len(run.outcomes) for run in runs)
    failed = sum(run.failed for run in runs)
    result.failed += failed
    if failed:
        errors = sorted({o.error for run in runs for o in run.outcomes if not o.ok})
        result.fail(f"{failed} requests failed: {', '.join(errors)}")


def api(ctx: Context) -> Result:
    result = Result()
    db, build_s, summary = _serve_fixture(ctx)
    rng = random.Random(ctx.seed)
    # The rounds are shared out over several server processes started one
    # after another, so that no one process's luck (its hash seed, its
    # memory layout) sets the figures; each start is a set-up sample.
    per_server = max(1, rounds_for(ctx.seconds) // API_SERVERS)
    setups: list[float] = []
    peaks: list[float] = []
    rounds = Rounds()
    catalog = None
    for index in range(API_SERVERS):
        server = start_server(ctx, db, f"server-{index}")
        setups.append(server.setup_s)
        try:
            with separate_cpus(server):
                catalog = catalog or discover(server)
                wrong = api_mismatches(server, summary)
                if wrong:
                    result.fail("API headline differs from the campaign: " + ", ".join(wrong))
                rounds.extend(run_rounds(ctx, server, catalog, rng, per_server))
        finally:
            marks = server.child.interrupt()
        peaks.append(_peak_mb(marks))
        if marks.get("rc") not in (0, 130):
            result.fail(f"repro api exited {marks.get('rc')}")
    _tally_requests(result, rounds.measured)
    for level in rounds.light + rounds.heavy:
        if not level.valid:
            result.fail(f"generator fell behind with {level.connections} connection(s)")
    # Every figure pools all rounds of the run: quantiles over every
    # request of a load, the rate over all heavy phases, the median scan.
    light = pooled_latencies(rounds.light)
    heavy = pooled_latencies(rounds.heavy)
    result.metrics = {
        "setup_s": median(setups),
        "wall_s": median([scan.wall for scan in rounds.scans]),
        "peak_rss_mb": median(peaks),
        "archive_bytes_per_bundle": file_bytes(db) / catalog.total,
        "latency_p50_ms.light": _ms(quantile(light, 0.5)),
        "latency_p90_ms.light": _ms(quantile(light, 0.9)),
        "latency_p50_ms.heavy": _ms(quantile(heavy, 0.5)),
        "latency_p90_ms.heavy": _ms(quantile(heavy, 0.9)),
        "max_rate_rps": len(heavy) / sum(level.outcome.wall for level in rounds.heavy),
    }
    result.notes += [
        f"fixture: scenario seed {ctx.scenario_seed}, {catalog.total} bundles, "
        f"{len(catalog.detection_ids)} detections, built and analyzed in "
        f"{build_s:.2f} s (not part of set-up)",
        f"{len(rounds.light)} rounds over {API_SERVERS} server processes, each round "
        f"{ctx.requests} requests at 1 and {ctx.nproc} connections, then a full scan "
        "in pages of 1,000:",
        *("  " + level.describe() for level in rounds.light + rounds.heavy),
        "  scans: " + ", ".join(f"{scan.wall * 1000:.1f} ms" for scan in rounds.scans),
        "latency per request kind, 1 connection, every round:",
        *_kind_lines(rounds),
    ]
    return result


def api_traced(ctx: Context) -> Result:
    result = Result()
    db, build_s, summary = _serve_fixture(ctx)
    rng = random.Random(ctx.seed)
    plain = start_server(ctx, db, "untraced")
    try:
        with separate_cpus(plain):
            catalog = discover(plain)
            untraced = run_rounds(ctx, plain, catalog, rng, 1)
    finally:
        plain.child.interrupt()
    server = start_server(ctx, db, "traced", trace="api")
    try:
        with separate_cpus(server):
            discover(server)
            traced = run_rounds(ctx, server, catalog, rng, 1)
    finally:
        marks = server.child.interrupt()
    if "trace" not in marks:
        raise BenchError(f"traced repro api wrote no trace: {marks.get('error')}")
    _tally_requests(result, traced.measured)
    trace = marks["trace"]
    _require_calls(trace, "api")
    spans = summarize(trace)
    answered = [o for run in server.runs for o in run.outcomes if o.status]
    client_s = sum(o.latency for o in answered)
    handle_s = spans.get("serve.handle", {}).get("total_s", 0.0)
    spans_self = sum(entry["self_s"] for entry in spans.values())
    levels = traced.light + traced.heavy
    lags = [lag for level in levels for lag in level.lags]
    metrics = layer_metrics(spans, trace["counts"])
    # Per-kind latency comes from the untraced server of this run.
    for kind, (p50, p90, _count) in untraced.light_by_kind().items():
        metrics[f"api.{kind}_p50_ms"] = p50
        metrics[f"api.{kind}_p90_ms"] = p90
    metrics.update(
        {
            "serve.http_s": client_s - handle_s,
            "archive.db_bytes": float(file_bytes(db)),
            "unaccounted_s": client_s - spans_self,
            "trace_overhead_s": traced.heavy[0].outcome.wall - untraced.heavy[0].outcome.wall,
            "loadgen.lag_p50_ms": _ms(quantile(lags, 0.5)),
            "loadgen.lag_max_ms": _ms(max(lags)),
            "loadgen.in_flight_max": float(max(l.outcome.in_flight_max for l in levels)),
            "fixture.build_s": build_s,
        }
    )
    result.metrics = metrics
    result.notes += [
        f"traced server: {len(answered)} requests, client time {client_s:.3f} s, "
        f"in handle() {handle_s:.3f} s",
        *_span_table(spans, client_s),
        *("  " + level.describe() for level in levels),
        "untraced server, latency per request kind, 1 connection:",
        *_kind_lines(untraced),
    ]
    return result


UNTRACED = {"campaign": campaign, "analyze": analyze, "api": api}
TRACED = {"campaign": campaign_traced, "analyze": analyze_traced, "api": api_traced}
