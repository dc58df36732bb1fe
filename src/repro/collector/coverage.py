"""Coverage estimation via successive-response overlap.

The paper validates completeness by checking whether successive recent-bundle
responses share any bundles: "we found that, on average, 95% of successive
pairs of requests to the Jito API indeed had overlap" (Section 3.1). This
module computes exactly that statistic, plus gap bookkeeping for the shaded
regions of Figures 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PollPairObservation:
    """The overlap verdict for one pair of successive successful polls."""

    poll_time: float
    overlapped: bool
    new_bundles: int


@dataclass(frozen=True)
class CollectionGap:
    """A maximal run of consecutive failed polls (a hole in the record)."""

    start: float
    end: float
    failed_polls: int

    @property
    def duration(self) -> float:
        """Seconds between the first and last failure in the run."""
        return self.end - self.start


@dataclass
class CoverageEstimator:
    """Accumulates overlap observations and poll failures."""

    pairs: list[PollPairObservation] = field(default_factory=list)
    failed_polls: int = 0
    successful_polls: int = 0
    failure_times: list[float] = field(default_factory=list)
    _previous_ids: frozenset[str] | None = None
    #: How many of :attr:`pairs` overlapped, kept so the poller's
    #: per-poll gauge update is O(1) rather than a rescan of every pair.
    _overlapped_pairs: int = 0

    def observe_success(
        self, poll_time: float, returned_ids: list[str], new_bundles: int
    ) -> bool | None:
        """Record a successful poll; returns overlap verdict (None if first).

        Overlap means at least one bundle id appears in both this response
        and the previous successful one. An *empty* response trivially
        overlaps only when the previous was also empty-at-same-tip — we score
        "no new data" as overlap, since nothing can have been missed.
        """
        self.successful_polls += 1
        current = frozenset(returned_ids)
        verdict: bool | None = None
        if self._previous_ids is not None:
            if not current or not self._previous_ids:
                verdict = True  # nothing landed; nothing missed
            else:
                verdict = bool(current & self._previous_ids)
            self._overlapped_pairs += verdict
            self.pairs.append(
                PollPairObservation(
                    poll_time=poll_time,
                    overlapped=verdict,
                    new_bundles=new_bundles,
                )
            )
        self._previous_ids = current
        return verdict

    def observe_failure(self, poll_time: float) -> None:
        """Record a poll that failed after retries (a collection gap)."""
        self.failed_polls += 1
        self.failure_times.append(poll_time)
        # A failed poll breaks the chain: the next success has no usable
        # predecessor window, so do not score the pair that straddles it.
        self._previous_ids = None

    def state(self) -> dict:
        """JSON-safe snapshot of the estimator (for campaign checkpoints)."""
        return {
            "pairs": [
                {
                    "poll_time": pair.poll_time,
                    "overlapped": pair.overlapped,
                    "new_bundles": pair.new_bundles,
                }
                for pair in self.pairs
            ],
            "failed_polls": self.failed_polls,
            "successful_polls": self.successful_polls,
            "failure_times": list(self.failure_times),
            "previous_ids": (
                sorted(self._previous_ids)
                if self._previous_ids is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state`."""
        self.pairs = [
            PollPairObservation(
                poll_time=pair["poll_time"],
                overlapped=pair["overlapped"],
                new_bundles=pair["new_bundles"],
            )
            for pair in state["pairs"]
        ]
        self._overlapped_pairs = sum(pair.overlapped for pair in self.pairs)
        self.failed_polls = int(state["failed_polls"])
        self.successful_polls = int(state["successful_polls"])
        self.failure_times = list(state["failure_times"])
        previous = state["previous_ids"]
        self._previous_ids = (
            frozenset(previous) if previous is not None else None
        )

    @property
    def pair_count(self) -> int:
        """Number of scored successive pairs."""
        return len(self.pairs)

    def overlap_fraction(self) -> float:
        """Fraction of successive successful pairs that overlapped."""
        if not self.pairs:
            return 1.0
        return self._overlapped_pairs / len(self.pairs)

    def missed_pair_times(self) -> list[float]:
        """Poll times where overlap failed (bundles likely missed)."""
        return [p.poll_time for p in self.pairs if not p.overlapped]

    def collection_gaps(self, max_gap_seconds: float) -> list[CollectionGap]:
        """Group poll failures into maximal gap intervals.

        Failures separated by at most ``max_gap_seconds`` (typically the
        poll interval, plus slack) belong to the same gap — one outage that
        spans several poll slots is one hole in the record, not several.
        """
        gaps: list[list] = []
        for failure_time in sorted(self.failure_times):
            if gaps and failure_time - gaps[-1][1] <= max_gap_seconds:
                gaps[-1][1] = failure_time
                gaps[-1][2] += 1
            else:
                gaps.append([failure_time, failure_time, 1])
        return [
            CollectionGap(start=start, end=end, failed_polls=count)
            for start, end, count in gaps
        ]
