"""The capacity model's pick past its measured envelope.

The committed sweep's knees do not grow with the pool (pool 1 sustained
more than pools 2 and 4), so "the largest measured pool" is the wrong
answer past the envelope: the model must recommend the pool that
sustained the most.
"""

import os

from repro.serving import CapacityModel

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_past_the_envelope_the_committed_model_picks_the_highest_knee():
    model = CapacityModel.load(os.path.join(REPO_ROOT, "BENCH_SERVING.json"))
    best = max(knee for _, knee in model.knees)
    rate = 1.5 * best  # needs a knee of 1.5 * best / 0.8: no pool covers it
    pick = model.pool_for_rate(rate, headroom=0.8)
    assert model.knee_for_pool(pick) == best
    assert pick == max(pool for pool, knee in model.knees if knee == best)


def test_past_the_envelope_ties_go_to_the_largest_pool():
    model = CapacityModel(knees=((1, 100.0), (2, 300.0), (4, 300.0)))
    assert model.pool_for_rate(1000.0, headroom=1.0) == 4
