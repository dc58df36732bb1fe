"""Tip-versus-landing-latency analysis.

Paper Section 3.3 rests on a cited measurement: "even higher Jito tips on
length one bundles have a negligible effect on the time-to-confirmation of
the bundled transaction". That claim is what licenses reading sub-100K-tip
length-one bundles as *protection* rather than failed priority bids. This
module measures the same relationship on the simulation's ground truth
(submission-to-landing times by tip quantile) so the premise is checked
rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.figures import format_table
from repro.errors import ConfigError
from repro.utils.stats import summarize

if TYPE_CHECKING:
    from repro.jito.block_engine import BundleOutcome


@dataclass(frozen=True)
class LatencyBucket:
    """Landing-latency statistics for one tip quantile."""

    label: str
    tip_low: int
    tip_high: int
    count: int
    mean_latency: float
    p95_latency: float
    immediate_fraction: float


@dataclass
class LatencyStudy:
    """Latency-by-tip-quantile over one bundle-length class.

    Landing latency in the engine is bimodal: a bundle either lands in the
    next produced block (latency ~0) or waits out a non-Jito leader's slot.
    Which of the two happens depends on *when* the bundle was submitted,
    not on its tip — so the informative statistic is the fraction landing
    immediately, compared across tip quantiles.
    """

    length: int
    buckets: list[LatencyBucket]

    def immediate_fraction_spread(self) -> float:
        """Max-minus-min immediate-landing fraction across tip buckets.

        Near 0 means tips do not buy landing speed — the paper's cited
        "negligible effect" for length-one bundles.
        """
        fractions = [b.immediate_fraction for b in self.buckets if b.count]
        if not fractions:
            return 0.0
        return max(fractions) - min(fractions)

    def render(self) -> str:
        """Plain-text rendering of the latency table."""
        rows = [
            [
                bucket.label,
                f"{bucket.tip_low:,}..{bucket.tip_high:,}",
                str(bucket.count),
                f"{bucket.immediate_fraction:.1%}",
                f"{bucket.mean_latency:.1f}s",
                f"{bucket.p95_latency:.1f}s",
            ]
            for bucket in self.buckets
        ]
        table = format_table(
            [
                "tip quantile",
                "tip range (lamports)",
                "n",
                "immediate",
                "mean",
                "p95",
            ],
            rows,
        )
        return (
            f"Landing latency vs tip — length-{self.length} bundles "
            f"(immediate-landing spread "
            f"{self.immediate_fraction_spread():.3f})\n{table}"
        )


def latency_by_tip(
    outcomes: list[BundleOutcome],
    length: int = 1,
    num_buckets: int = 4,
) -> LatencyStudy:
    """Bucket one length class by tip quantile; summarize landing latency.

    Raises:
        ConfigError: if no bundles of ``length`` are present.
    """
    if num_buckets < 2:
        raise ConfigError(f"need at least 2 buckets, got {num_buckets}")
    relevant = sorted(
        (o for o in outcomes if o.num_transactions == length),
        key=lambda o: o.tip_lamports,
    )
    if not relevant:
        raise ConfigError(f"no length-{length} bundles to analyze")
    buckets: list[LatencyBucket] = []
    per_bucket = max(len(relevant) // num_buckets, 1)
    for index in range(num_buckets):
        start = index * per_bucket
        end = (index + 1) * per_bucket if index < num_buckets - 1 else len(relevant)
        chunk = relevant[start:end]
        if not chunk:
            continue
        latencies = summarize([o.landing_latency for o in chunk])
        immediate = sum(1 for o in chunk if o.landing_latency < 1.0)
        buckets.append(
            LatencyBucket(
                label=f"q{index + 1}/{num_buckets}",
                tip_low=chunk[0].tip_lamports,
                tip_high=chunk[-1].tip_lamports,
                count=len(chunk),
                mean_latency=latencies.mean,
                p95_latency=latencies.p95,
                immediate_fraction=immediate / len(chunk),
            )
        )
    return LatencyStudy(length=length, buckets=buckets)
