"""Behavior of the background chunk reader (:class:`ChunkPrefetcher`).

Covers order preservation, the in-flight depth bound, reader-side
failure propagation into the consumer, consumer-early-exit shutdown
(the thread terminates instead of deadlocking against a full queue),
and the engine-level surfacing of a reader crash through
:meth:`ParallelAnalysisEngine.analyze`.
"""

import pytest

from repro.archive.database import ArchiveDatabase
from repro.archive.query import ArchiveQuery
from repro.errors import ConfigError
from repro.parallel import ParallelAnalysisEngine
from repro.parallel.chunks import ChunkTask, DetectorSpec, plan_chunks
from repro.parallel.worker import compute_task, load_task
from repro.pipeline import ChunkPrefetcher
from tests.parallel.helpers import build_archive

DESCRIPTORS = (
    [("sandwich", i, 2_000_000) for i in range(3)]
    + [("plain", i % 3, 10_000) for i in range(9)]
    + [("benign3", i, 50_000) for i in range(4)]
    + [("undetailed3", 2, 75_000) for _ in range(2)]
)


@pytest.fixture
def archive(tmp_path):
    path = tmp_path / "archive.db"
    build_archive(path, DESCRIPTORS)
    return path


def make_tasks(path, chunk_size=4):
    """Plan the archive into :class:`ChunkTask` units for the prefetcher."""
    database = ArchiveDatabase(path, read_only=True)
    spec = DetectorSpec(usd_per_sol=150.0)
    chunks = plan_chunks(ArchiveQuery(database), chunk_size=chunk_size)
    database.close()
    return [
        ChunkTask(
            index=chunk.index,
            archive_path=str(path),
            spec=spec,
            chunk=chunk,
        )
        for chunk in chunks
    ]


class TestPrefetcher:
    def test_yields_every_task_in_order_with_its_payload(self, archive):
        tasks = make_tasks(archive)
        prefetcher = ChunkPrefetcher(
            str(archive), tasks, depth=2, load=load_task
        )
        with prefetcher:
            got = list(prefetcher)
        assert [task.index for task, _ in got] == [t.index for t in tasks]
        outcomes = [compute_task(task, payload) for task, payload in got]
        assert sum(o.bundle_count for o in outcomes) == len(DESCRIPTORS)

    def test_depth_bounds_chunks_in_flight(self, archive):
        tasks = make_tasks(archive, chunk_size=2)
        prefetcher = ChunkPrefetcher(
            str(archive), tasks, depth=2, load=load_task
        )
        with prefetcher:
            list(prefetcher)
        assert 1 <= prefetcher.queue.high_water <= 2

    def test_depth_must_be_positive(self, archive):
        with pytest.raises(ConfigError):
            ChunkPrefetcher(str(archive), [], depth=0, load=load_task)

    def test_reader_exception_reraises_in_consumer(self, archive):
        tasks = make_tasks(archive)

        def exploding_load(database, task):
            raise RuntimeError("projection failed")

        prefetcher = ChunkPrefetcher(
            str(archive), tasks, depth=2, load=exploding_load
        )
        with prefetcher:
            with pytest.raises(RuntimeError, match="projection failed"):
                list(prefetcher)

    def test_consumer_early_exit_terminates_reader(self, archive):
        # More tasks than depth, so the reader is parked against a full
        # queue when the consumer breaks — the regression shape.
        tasks = make_tasks(archive, chunk_size=2)
        assert len(tasks) > 3
        prefetcher = ChunkPrefetcher(
            str(archive), tasks, depth=1, load=load_task
        )
        with prefetcher:
            thread = prefetcher._thread
            for _task, _payload in prefetcher:
                break  # consumer walks away mid-stream
        assert not thread.is_alive()
        assert prefetcher.queue.closed

    def test_close_is_idempotent_and_joins(self, archive):
        tasks = make_tasks(archive)
        prefetcher = ChunkPrefetcher(
            str(archive), tasks, depth=2, load=load_task
        )
        with prefetcher:
            pass
        prefetcher.close()  # second close after __exit__: no-op


class TestEngineSurfacing:
    def test_reader_crash_surfaces_through_analyze(
        self, archive, monkeypatch
    ):
        def exploding_load(database, task):
            raise RuntimeError("reader thread died")

        monkeypatch.setattr(
            "repro.parallel.worker.load_task", exploding_load
        )
        engine = ParallelAnalysisEngine(
            archive, jobs=1, chunk_size=4, prefetch=2
        )
        with pytest.raises(RuntimeError, match="reader thread died"):
            engine.analyze(persist=False)
        engine.database.close()
