"""Regression tests for the incremental analyzer's no-op fast path.

``repro analyze --incremental`` re-run with nothing new must not rewrite
analysis rows or the watermark — it rebuilds the report from what the
archive already holds and says so.
"""

import dataclasses

from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.archive.store import ArchiveBundleStore
from repro.conformance.scenarios import (
    generate_rows,
    selftest_scenario,
    write_archive,
)
from repro.obs.registry import MetricsRegistry
from repro.parallel.merge import report_bytes

ROWS = generate_rows(selftest_scenario(11, bundles=120))


def _fresh_archive(tmp_path):
    path = tmp_path / "noop.db"
    write_archive(ROWS, path)
    return path


def test_first_pass_is_never_a_noop(tmp_path):
    analyzer = IncrementalAnalyzer(ArchiveDatabase(_fresh_archive(tmp_path)))
    result = analyzer.analyze()
    assert not result.no_op
    assert result.new_bundles == len(ROWS)
    analyzer.database.close()


def test_rerun_with_no_new_rows_is_a_noop(tmp_path):
    metrics = MetricsRegistry()
    analyzer = IncrementalAnalyzer(
        ArchiveDatabase(_fresh_archive(tmp_path)), metrics=metrics
    )
    first = analyzer.analyze()
    state_before = analyzer.load_state()
    counts_before = analyzer.database.table_counts()

    second = analyzer.analyze()
    assert second.no_op
    assert second.new_bundles == 0
    assert second.new_sandwiches == 0
    # Identical report, rebuilt from the archive without any writes:
    assert report_bytes(second.report) == report_bytes(first.report)
    assert analyzer.load_state() == state_before
    assert analyzer.database.table_counts() == counts_before
    assert (
        metrics.counter("archive_incremental_noop_total", "").value() == 1
    )
    analyzer.database.close()


def test_new_bundle_defeats_the_noop(tmp_path):
    analyzer = IncrementalAnalyzer(ArchiveDatabase(_fresh_archive(tmp_path)))
    analyzer.analyze()
    writer = ArchiveBundleStore(analyzer.database)
    extra = dataclasses.replace(
        ROWS[0][0], bundle_id="noop-extra", transaction_ids=("noop-tx",)
    )
    writer.add_bundles([extra])
    writer.flush()

    third = analyzer.analyze()
    assert not third.no_op
    assert third.new_bundles == 1
    # And once caught up, the path no-ops again.
    assert analyzer.analyze().no_op
    analyzer.database.close()


def test_new_details_for_pending_bundles_defeat_the_noop(tmp_path):
    """Pending candidates alone don't force re-analysis, but a detail
    landing for one of them must."""
    analyzer = IncrementalAnalyzer(ArchiveDatabase(_fresh_archive(tmp_path)))
    analyzer.analyze()
    state = analyzer.load_state()
    pending = state["state"]["pending_ids"]
    assert pending  # the selftest scenario carries pending bundles
    assert analyzer.analyze().no_op

    from repro.archive.query import ArchiveQuery
    from repro.explorer.models import TransactionRecord

    bundle = ArchiveQuery(analyzer.database).bundle(pending[0])
    writer = ArchiveBundleStore(analyzer.database)
    writer.add_details(
        [
            TransactionRecord(
                transaction_id=bundle.transaction_ids[0],
                slot=bundle.slot,
                block_time=bundle.landed_at,
                signer="late",
                signers=("late",),
                fee_lamports=5_000,
            )
        ]
    )
    writer.flush()
    result = analyzer.analyze()
    assert not result.no_op
    analyzer.database.close()


def test_rerun_with_jobs_is_still_a_noop(tmp_path):
    """``--incremental --jobs N`` on an empty delta takes the same
    watermark-aware fast path as the serial analyzer: zero writes, the
    no-op metric ticks, and the rebuilt report is byte-identical."""
    metrics = MetricsRegistry()
    database = ArchiveDatabase(_fresh_archive(tmp_path))
    first = IncrementalAnalyzer(database).analyze()
    analyzer = IncrementalAnalyzer(database, jobs=4, metrics=metrics)
    state_before = analyzer.load_state()
    counts_before = database.table_counts()

    second = analyzer.analyze()
    assert second.no_op
    assert second.new_bundles == 0
    assert report_bytes(second.report) == report_bytes(first.report)
    assert analyzer.load_state() == state_before
    assert database.table_counts() == counts_before
    assert (
        metrics.counter("archive_incremental_noop_total", "").value() == 1
    )
    database.close()


def test_cli_incremental_rerun_with_jobs_is_a_noop(tmp_path, capsys):
    """The CLI path: a second ``analyze --incremental --jobs 4`` run must
    report the no-op and leave every table untouched."""
    from repro.cli import main

    path = _fresh_archive(tmp_path)
    assert main(["analyze", "--store", str(path), "--incremental"]) == 0
    database = ArchiveDatabase(path)
    counts_before = database.table_counts()
    database.close()

    capsys.readouterr()
    code = main(
        [
            "analyze",
            "--store",
            str(path),
            "--incremental",
            "--jobs",
            "4",
        ]
    )
    assert code == 0
    assert "no-op" in capsys.readouterr().out
    database = ArchiveDatabase(path)
    assert database.table_counts() == counts_before
    database.close()


def test_noop_requires_established_watermark(tmp_path):
    """An empty archive's very first pass still writes state (not a no-op)."""
    path = tmp_path / "empty.db"
    analyzer = IncrementalAnalyzer(ArchiveDatabase(path))
    first = analyzer.analyze()
    assert not first.no_op
    assert analyzer.load_state()["exists"]
    assert analyzer.analyze().no_op
    analyzer.database.close()
