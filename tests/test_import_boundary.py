"""The read side never imports the write side.

``repro analyze`` and ``repro api`` only read an archive, so they must not
pay to import the simulator and the collection stack. Each command runs in
a fresh interpreter here, and the ``repro`` modules it loaded are checked
against the write-side packages. The package re-exports those commands no
longer load eagerly must still resolve on first access.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.conformance.scenarios import (
    CORPUS_SCENARIOS,
    generate_rows,
    write_archive,
)

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (and packages, with everything under them) of the write side:
#: the simulator, its substrates, and the live collection stack.
WRITE_SIDE = (
    "repro.agents",
    "repro.collector.campaign",
    "repro.collector.detail_fetcher",
    "repro.collector.poller",
    "repro.dex.market",
    "repro.explorer.service",
    "repro.faults",
    "repro.jito.block_engine",
    "repro.scenarios",
    "repro.simulation",
    "repro.solana.bank",
    "repro.stream",
)

#: Runs ``repro.cli.main(argv[2:])`` and writes the loaded ``repro``
#: modules to ``argv[1]`` once the command returns.
CLI_PROBE = """
import json, sys
import repro.cli
rc = repro.cli.main(sys.argv[2:])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
with open(sys.argv[1], "w") as out:
    json.dump({"rc": rc, "modules": loaded}, out)
"""

#: Packages whose ``__all__`` resolves lazily (PEP 562 ``__getattr__``).
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.archive",
    "repro.collector",
    "repro.conformance",
    "repro.dex",
    "repro.explorer",
    "repro.jito",
    "repro.solana",
)


def cli_probe(out: Path, *argv: str) -> list[str]:
    return [sys.executable, "-c", CLI_PROBE, str(out), *argv]


def write_side(modules: list[str]) -> list[str]:
    return [
        name
        for name in modules
        if any(name == top or name.startswith(top + ".") for top in WRITE_SIDE)
    ]


@pytest.fixture(scope="module")
def corpus_db(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("boundary") / "archive.db"
    write_archive(generate_rows(CORPUS_SCENARIOS[0]), path)
    return path


def test_analyze_loads_no_write_side_module(corpus_db, tmp_path):
    out = tmp_path / "modules.json"
    completed = subprocess.run(
        cli_probe(out, "analyze", "--store", str(corpus_db)),
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    assert "sandwiches:" in completed.stdout
    loaded = json.loads(out.read_text())
    assert loaded["rc"] == 0
    assert "repro.parallel.engine" in loaded["modules"]
    assert write_side(loaded["modules"]) == []


def test_api_loads_no_write_side_module(corpus_db, tmp_path):
    out = tmp_path / "modules.json"
    process = subprocess.Popen(
        cli_probe(out, "api", "--db", str(corpus_db), "--port", "0"),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        deadline = time.monotonic() + 60
        line = ""
        while time.monotonic() < deadline and "archive api" not in line:
            line = process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        assert match, f"no address announced: {line!r}"
        # One request, so the route and repository code paths are loaded too.
        url = f"http://{match.group(1)}:{match.group(2)}/v1/detections"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == 200
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)
    loaded = json.loads(out.read_text())
    assert loaded["rc"] == 0
    assert "repro.serve.app" in loaded["modules"]
    assert write_side(loaded["modules"]) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_lazy_export_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018


def test_readme_quickstart_imports():
    from repro import AnalysisPipeline, MeasurementCampaign, small_scenario
    from repro.collector.campaign import MeasurementCampaign as home

    assert MeasurementCampaign is home
    assert callable(AnalysisPipeline) and callable(small_scenario)
