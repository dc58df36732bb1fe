"""Coverage estimator tests: the successive-overlap statistic."""

import random

from repro.collector.coverage import CoverageEstimator


class TestOverlap:
    def test_first_poll_unscored(self):
        coverage = CoverageEstimator()
        verdict = coverage.observe_success(0.0, ["a", "b"], new_bundles=2)
        assert verdict is None
        assert coverage.pair_count == 0

    def test_shared_id_means_overlap(self):
        coverage = CoverageEstimator()
        coverage.observe_success(0.0, ["a", "b"], 2)
        verdict = coverage.observe_success(120.0, ["b", "c"], 1)
        assert verdict is True
        assert coverage.overlap_fraction() == 1.0

    def test_disjoint_means_miss(self):
        coverage = CoverageEstimator()
        coverage.observe_success(0.0, ["a", "b"], 2)
        verdict = coverage.observe_success(120.0, ["c", "d"], 2)
        assert verdict is False
        assert coverage.overlap_fraction() == 0.0
        assert coverage.missed_pair_times() == [120.0]

    def test_empty_response_counts_as_overlap(self):
        coverage = CoverageEstimator()
        coverage.observe_success(0.0, ["a"], 1)
        assert coverage.observe_success(120.0, [], 0) is True

    def test_mixed_fraction(self):
        coverage = CoverageEstimator()
        coverage.observe_success(0.0, ["a"], 1)
        coverage.observe_success(1.0, ["a", "b"], 1)   # overlap
        coverage.observe_success(2.0, ["c"], 1)        # miss
        coverage.observe_success(3.0, ["c", "d"], 1)   # overlap
        assert coverage.overlap_fraction() == 2 / 3

    def test_no_pairs_reports_full_overlap(self):
        assert CoverageEstimator().overlap_fraction() == 1.0


class TestFailures:
    def test_failure_recorded(self):
        coverage = CoverageEstimator()
        coverage.observe_failure(5.0)
        assert coverage.failed_polls == 1
        assert coverage.failure_times == [5.0]

    def test_failure_breaks_the_chain(self):
        coverage = CoverageEstimator()
        coverage.observe_success(0.0, ["a"], 1)
        coverage.observe_failure(120.0)
        # The next success has no usable predecessor: unscored.
        verdict = coverage.observe_success(240.0, ["z"], 1)
        assert verdict is None
        assert coverage.pair_count == 0

    def test_counts(self):
        coverage = CoverageEstimator()
        coverage.observe_success(0.0, ["a"], 1)
        coverage.observe_failure(1.0)
        coverage.observe_success(2.0, ["b"], 1)
        assert coverage.successful_polls == 2
        assert coverage.failed_polls == 1


class TestRunningOverlapCount:
    @staticmethod
    def observed(seed: int) -> CoverageEstimator:
        """A long mixed history of overlaps, misses, empties and failures."""
        rng = random.Random(seed)
        coverage = CoverageEstimator()
        for index in range(400):
            if rng.random() < 0.05:
                coverage.observe_failure(float(index))
                continue
            ids = [f"b{rng.randrange(40)}" for _ in range(rng.randrange(4))]
            coverage.observe_success(float(index), ids, len(ids))
        return coverage

    def test_fraction_matches_a_rescan_of_every_pair(self):
        coverage = self.observed(seed=3)
        rescan = sum(p.overlapped for p in coverage.pairs) / len(coverage.pairs)
        assert 0.0 < rescan < 1.0
        assert coverage.overlap_fraction() == rescan

    def test_restore_rebuilds_the_count(self):
        original = self.observed(seed=5)
        resumed = CoverageEstimator()
        resumed.restore_state(original.state())
        assert resumed.overlap_fraction() == original.overlap_fraction()
        resumed.observe_success(1e6, ["fresh"], 1)
        original.observe_success(1e6, ["fresh"], 1)
        assert resumed.overlap_fraction() == original.overlap_fraction()
