"""Statistics of the PowerLog benchmark, kept apart so they can be tested.

Three rules live here:

* the percentile rule: a percentile is reported only with at least ten
  samples beyond it, together with its sample count;
* open-loop timing: a request's latency runs from the moment it was due,
  so a generator that falls behind charges its lateness to the request;
* failure accounting: every failed, unverified, refused or timed-out
  operation counts against the operations attempted, and a failed
  operation's latency is infinite, so it misses every latency limit.
"""

import math

MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples."""


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of `values` (0 < q < 1).

    Returns (value, count, beyond), where `beyond` is the number of samples
    ranked above the one returned. Raises InsufficientSamples unless at
    least `min_beyond` samples lie beyond it. None stands for a failed
    operation and sorts as +inf.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    data = sorted(math.inf if v is None else float(v) for v in values)
    n = len(data)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise InsufficientSamples(
            "p%g of %d samples has %d beyond it, needs %d"
            % (q * 100, n, max(beyond, 0), min_beyond))
    return data[rank - 1], n, beyond


def open_loop(requests):
    """Per-request timings of an open-loop run.

    `requests` holds (due, sent, done, ok) tuples in ms from the start of
    the window. Returns (latency, lateness) lists: latency = done - due
    (infinite for a failed request), lateness = max(0, sent - due).
    """
    latency, lateness = [], []
    for due, sent, done, ok in requests:
        latency.append(done - due if ok else math.inf)
        lateness.append(max(0.0, sent - due))
    return latency, lateness


def failed_ratio(attempted, failed):
    """Failed operations over attempted ones; a run that attempted nothing
    has failed entirely."""
    if attempted <= 0:
        return 1.0
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted
