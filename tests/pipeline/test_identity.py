"""Byte-identity of pipelined runs across prefetch depths and job counts.

The differential guarantee: prefetching is a *scheduling* change, not a
semantic one. Every (jobs, prefetch) combination must reproduce
the serial pipeline's report bytes exactly — including a run that stops
mid-archive and resumes from the incremental watermark with prefetching
enabled.
"""

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.parallel import ParallelAnalysisEngine
from repro.parallel.merge import report_bytes
from tests.parallel.test_engine import DESCRIPTORS, serial_report
from tests.parallel.helpers import build_archive, descriptor_rows, write_rows


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("pipeline-identity") / "archive.db"
    build_archive(path, DESCRIPTORS)
    return path


@pytest.fixture(scope="module")
def serial_bytes(archive):
    return report_bytes(serial_report(archive))


class TestPrefetchIdentity:
    @pytest.mark.parametrize("prefetch", [0, 1, 2, 7])
    def test_in_process_bytes_identical_at_any_depth(
        self, archive, serial_bytes, prefetch
    ):
        engine = ParallelAnalysisEngine(
            archive, jobs=1, chunk_size=5, prefetch=prefetch
        )
        assert report_bytes(engine.analyze(persist=False)) == serial_bytes
        engine.database.close()

    def test_pool_batched_bytes_identical(self, archive, serial_bytes):
        # chunk_size 5 over ~42 bundles gives more tasks than workers, so
        # the pool takes the batched per-worker pipelined path.
        engine = ParallelAnalysisEngine(
            archive, jobs=2, chunk_size=5, prefetch=2
        )
        assert report_bytes(engine.analyze(persist=False)) == serial_bytes
        engine.database.close()

    def test_pool_without_prefetch_bytes_identical(
        self, archive, serial_bytes
    ):
        engine = ParallelAnalysisEngine(
            archive, jobs=2, chunk_size=5, prefetch=0
        )
        assert report_bytes(engine.analyze(persist=False)) == serial_bytes
        engine.database.close()


class TestKillResumeIdentity:
    def _resume(self, path, rows, kill_at, prefetch, jobs=1):
        """Write rows up to ``kill_at``, analyze, append the rest, resume."""
        write_rows(path, rows[:kill_at])
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), jobs=jobs, chunk_size=4, prefetch=prefetch
        )
        passes = [analyzer.analyze()]
        write_rows(path, rows[kill_at:])
        passes.append(analyzer.analyze())
        state = analyzer.load_state()
        analyzer.database.close()
        return passes, state

    def test_pipelined_resume_matches_unpipelined_resume(self, tmp_path):
        """Kill a run mid-archive and resume it with prefetching on: both
        passes must be byte-identical to the same kill/resume executed
        without prefetching — the checkpoint watermark and the prefetch
        queue must not interact."""
        rows = descriptor_rows(DESCRIPTORS)
        kill_at = len(rows) // 2
        plain_passes, plain_state = self._resume(
            tmp_path / "plain.db", rows, kill_at, prefetch=0
        )
        piped_passes, piped_state = self._resume(
            tmp_path / "piped.db", rows, kill_at, prefetch=3
        )
        pooled_passes, pooled_state = self._resume(
            tmp_path / "pooled.db", rows, kill_at, prefetch=3, jobs=2
        )
        assert piped_state == plain_state
        assert pooled_state == plain_state
        for plain, piped, pooled in zip(
            plain_passes, piped_passes, pooled_passes
        ):
            assert report_bytes(piped.report) == report_bytes(plain.report)
            assert report_bytes(pooled.report) == report_bytes(plain.report)
            assert piped.pending_detail_bundles == (
                plain.pending_detail_bundles
            )
