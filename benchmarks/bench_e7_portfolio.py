"""E7 — the portfolio verification service (scheduler + cache).

Batch-verifies the multi-property ``counter_bank`` stress design
sequentially, in parallel (``jobs=4`` worker processes racing
k-induction against BMC per property), and again with a warm result
cache.  Shape checks:

* every verdict matches the design's expectation in all three modes;
* the warm-cache rerun answers entirely from cache and is at least an
  order of magnitude faster than the sequential baseline;
* on a host with two or more CPUs the parallel batch takes at most 3x
  the sequential wall, both measured in the same run: losers are
  cancelled mid-solve, so racing costs pool start-up and a little
  contention, not a full losing BMC run per property;
* on a host with four or more CPUs the parallel batch beats the
  sequential one.
"""

import os

from _experiments import run_e7


def test_e7_portfolio(benchmark):
    table = benchmark.pedantic(run_e7, rounds=1, iterations=1)
    print()
    print(table.to_text())
    rows = {row[0]: row for row in table.rows}
    sequential = rows["sequential (jobs=1)"]
    parallel = rows["parallel (jobs=4)"]
    cached = rows["parallel again (warm cache)"]

    # Verdicts are mode-independent: 5 proven + 1 seeded violation.
    # (Table cells are stored formatted, hence the coercions.)
    for row in (sequential, parallel, cached):
        _mode, _wall, proven, violated, other, _hits, _speedup = row
        assert int(proven) == 5
        assert int(violated) == 1
        assert int(other) == 0

    # The warm-cache rerun answers from cache, massively faster.
    assert int(cached[5]) > 0, "warm rerun produced no cache hits"
    assert float(cached[1]) < float(sequential[1]) / 10

    cpus = os.cpu_count() or 1
    if cpus >= 2:
        assert float(parallel[1]) <= 3 * float(sequential[1]), \
            "racing should cost at most 3x the sequential wall: are " \
            "losing attempts still running to their bound?"
    if cpus >= 4:
        assert float(parallel[1]) < float(sequential[1]), \
            "parallel portfolio should beat sequential on a multi-core host"
