"""Aggregates over one run's samples.

The 2-vCPU virtual machine this benchmark was tuned on runs single-threaded
Python at speeds up to about 1.4x apart, in stretches from a few seconds
to over a minute; other tenants' load slows a measurement and never speeds
it up.  Over a 5-second window, the median of a fixed 15 ms loop moved
between 14.8 and 21.3 ms while its minimum stayed within 13.4-14.6 ms.  So
a timing is read on its better side: a run repeats each cold measurement
on the same input and keeps the best, and each warm epoch keeps its
fastest pass.

Inputs differ in cost too.  A run therefore draws several inputs from its
seed (UDF batches, or the service's standing sets), takes the best of each
input's repetitions, and reports the mean over inputs, so one expensive
draw moves the run's figure by its share only.
"""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The sample at quantile ``q`` (nearest rank, no interpolation)."""

    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def best_per_input(samples, better: str) -> float:
    """Mean over inputs of each input's best repetition.

    ``samples`` holds ``(input, value)`` pairs; the best is the lowest
    value when lower is better and the highest otherwise.
    """

    pick = min if better == "lower" else max
    by_input: dict[int, list[float]] = {}
    for key, value in samples:
        by_input.setdefault(key, []).append(value)
    return statistics.fmean(pick(values) for values in by_input.values())


def best_ratio_per_input(numerators, denominators) -> float:
    """Mean over inputs of the fastest numerator over the fastest denominator.

    Both take ``(input, seconds)`` pairs, as :func:`best_per_input`; each
    side keeps its own fastest repetition, so a ratio is never read off one
    lucky pair.
    """

    fastest = [{}, {}]
    for side, samples in zip(fastest, (numerators, denominators)):
        for key, value in samples:
            side[key] = min(value, side.get(key, value))
    return statistics.fmean(fastest[0][key] / fastest[1][key] for key in fastest[0])


def iqm(values) -> float:
    """Mean of the middle half (the interquartile mean)."""

    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)
