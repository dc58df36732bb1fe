"""Property-based parity: randomized campaigns, serial vs parallel.

Hypothesis generates arbitrary bundle mixes (sandwiches, benign triples,
forever-pending bundles, tips above and below the defensive threshold,
landed-at ties) and the same materialized rows are written to one database
per job count. Whatever the campaign, the full analysis must produce
byte-identical canonical reports, identical sandwich sets, and identical
quantification totals — and an incremental pass split at an arbitrary
kill point must agree with serial incremental analysis byte for byte.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.archive.database import ArchiveDatabase
from repro.archive.incremental import IncrementalAnalyzer
from repro.parallel import ParallelAnalysisEngine
from repro.parallel.merge import report_bytes
from tests.parallel.helpers import descriptor_rows, write_rows
from tests.parallel.test_engine import serial_report

KINDS = ("sandwich", "benign3", "undetailed3", "plain", "long", "pair")

descriptor = st.tuples(
    st.sampled_from(KINDS),
    st.integers(min_value=0, max_value=5),  # landed offset: ties are likely
    st.sampled_from((10_000, 75_000, 400_000, 2_000_000)),
)
campaigns = st.lists(descriptor, min_size=1, max_size=30)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(descriptors=campaigns, chunk_size=st.integers(1, 9))
@SETTINGS
def test_full_analysis_parity_across_job_counts(
    tmp_path_factory, descriptors, chunk_size
):
    rows = descriptor_rows(descriptors)
    base = tmp_path_factory.mktemp("prop")
    reports = {}
    for jobs in (1, 2, 4):
        path = base / f"jobs-{jobs}.db"
        write_rows(path, rows)
        engine = ParallelAnalysisEngine(
            path, jobs=jobs, chunk_size=chunk_size
        )
        reports[jobs] = engine.analyze(persist=False)
        engine.database.close()
    serial = reports[1]
    for jobs in (2, 4):
        parallel = reports[jobs]
        assert report_bytes(parallel) == report_bytes(serial)
        assert [q.event.bundle_id for q in parallel.quantified] == [
            q.event.bundle_id for q in serial.quantified
        ]
        assert (
            parallel.headline.victim_loss_usd
            == serial.headline.victim_loss_usd
        )
        assert (
            parallel.headline.attacker_gain_usd
            == serial.headline.attacker_gain_usd
        )


@given(
    descriptors=st.lists(
        st.tuples(
            st.sampled_from(KINDS),
            st.integers(min_value=0, max_value=4),
            st.sampled_from((0, 10_000, 100_000, 2_000_000)),  # zero tips
        ),
        min_size=1,
        max_size=12,
    ),
    chunk_size=st.integers(min_value=1, max_value=5),
)
@SETTINGS
def test_report_bytes_match_at_any_chunk_size(
    tmp_path_factory, descriptors, chunk_size
):
    """Single-bundle chunks (chunk_size=1) and every size above must all
    reduce to the serial pipeline's report."""
    rows = descriptor_rows(descriptors)
    base = tmp_path_factory.mktemp("chunk")
    write_rows(base / "serial.db", rows)
    write_rows(base / "chunked.db", rows)
    engine = ParallelAnalysisEngine(
        base / "chunked.db", jobs=1, chunk_size=chunk_size
    )
    chunked = engine.analyze(persist=False)
    engine.database.close()
    assert report_bytes(chunked) == report_bytes(
        serial_report(base / "serial.db")
    )


@given(
    descriptors=campaigns,
    kill_at=st.integers(min_value=0, max_value=30),
    chunk_size=st.integers(1, 9),
)
@SETTINGS
def test_incremental_kill_resume_parity(
    tmp_path_factory, descriptors, kill_at, chunk_size
):
    # Split the campaign at an arbitrary kill point: rows before it land in
    # pass one, the rest in pass two — mimicking a campaign killed mid-run
    # and resumed, then re-analyzed with --incremental each time.
    rows = descriptor_rows(descriptors)
    kill_at = min(kill_at, len(rows))
    phases = [rows[:kill_at], rows[kill_at:]]
    base = tmp_path_factory.mktemp("prop-inc")
    outcomes = {}
    for jobs in (1, 3):
        path = base / f"jobs-{jobs}.db"
        analyzer = IncrementalAnalyzer(
            ArchiveDatabase(path), jobs=jobs, chunk_size=chunk_size
        )
        passes = []
        for phase in phases:
            write_rows(path, phase)
            passes.append(analyzer.analyze())
        state = analyzer.load_state()
        analyzer.database.close()
        outcomes[jobs] = (passes, state)
    serial_passes, serial_state = outcomes[1]
    parallel_passes, parallel_state = outcomes[3]
    assert parallel_state == serial_state
    for serial, parallel in zip(serial_passes, parallel_passes):
        assert report_bytes(parallel.report) == report_bytes(serial.report)
        assert parallel.new_bundles == serial.new_bundles
        assert parallel.new_sandwiches == serial.new_sandwiches
        assert parallel.pending_detail_bundles == (
            serial.pending_detail_bundles
        )
