"""Boundary regressions for chunk planning on the chunk engine.

Chunk planning partitions the archive by ``seq``; these tests pin the
awkward partitions: consecutive sandwich bundles (front/back attack
traffic) split across a chunk boundary, incremental passes starting from a
nonzero cursor, and archives where candidates' details have not arrived.
"""

from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.parallel.engine import ParallelAnalysisEngine
from repro.parallel.merge import report_bytes
from tests.parallel.helpers import descriptor_rows, write_rows

#: Two adjacent sandwiches sharing one landed_at tick, so any chunk size
#: below 2 splits the attack pair across chunks and the merge must
#: re-establish collection order; plus pending and single bundles.
SPLIT = [
    ("sandwich", 0, 600_000),
    ("sandwich", 0, 700_000),
    ("undetailed3", 0, 50_000),
    ("plain", 1, 40_000),
    ("sandwich", 1, 800_000),
]


def test_chunk_boundary_splits_adjacent_sandwiches(tmp_path):
    rows = descriptor_rows(SPLIT)
    reports = {}
    for label, chunk_size in (("whole", 100), ("split", 1)):
        path = tmp_path / f"{label}.db"
        write_rows(path, rows)
        runner = ParallelAnalysisEngine(path, jobs=1, chunk_size=chunk_size)
        reports[label] = runner.analyze(persist=False)
        runner.database.close()
    assert report_bytes(reports["whole"]) == report_bytes(reports["split"])
    assert reports["whole"].sandwich_count == 3


def test_incremental_from_nonzero_cursor_matches_serial(tmp_path):
    """Pass 2 starts at a nonzero watermark; its chunk plan must cover
    exactly the delta, and the chunked pass must match the serial one."""
    # Materialized once: the descriptor helper mints fresh ids per call,
    # and both job counts must see the byte-identical archive.
    first = descriptor_rows(SPLIT[:2])
    second = descriptor_rows(SPLIT[2:])
    reports = {}
    for jobs in (1, 2):
        path = tmp_path / f"cursor-{jobs}.db"
        write_rows(path, first)
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), jobs=jobs, chunk_size=2
        )
        analyzer.analyze()
        state = analyzer.load_state()
        assert state["last_bundle_seq"] == 2  # the nonzero cursor
        write_rows(path, second)
        result = analyzer.analyze()
        assert result.new_bundles == len(second)
        reports[jobs] = result.report
        analyzer.database.close()
    assert report_bytes(reports[1]) == report_bytes(reports[2])


def test_pending_details_stay_pending_across_job_counts(tmp_path):
    """Archives holding unfetched details: the serial and the chunked pass
    store the same pending worklist, in collection order."""
    rows = descriptor_rows(
        [
            ("undetailed3", 0, 80_000),
            ("sandwich", 0, 500_000),
            ("undetailed3", 1, 90_000),
        ]
    )
    pendings = {}
    for jobs in (1, 2):
        path = tmp_path / f"pend-{jobs}.db"
        write_rows(path, rows)
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), jobs=jobs, chunk_size=1
        )
        result = analyzer.analyze()
        assert result.pending_detail_bundles == 2
        state = analyzer.load_state()
        pendings[jobs] = state["state"]["pending_ids"]
        assert (
            result.report.detection_stats.bundles_skipped_incomplete == 2
        )
        analyzer.database.close()
    # The worklist the next pass re-feeds must not depend on the job count.
    assert len(pendings[1]) == 2
    assert pendings[1] == pendings[2]
