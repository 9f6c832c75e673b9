"""Tests for the switch-cost meter, matrix, and prediction model."""

import pytest

from repro.core import SwitchCostMeter, SwitchCostModel
from repro.mapreduce import MB
from repro.runner import default_runner
from repro.virt import ClusterConfig, PageCacheParams, SchedulerPair

from .conftest import serial_sweep

CC = SchedulerPair("cfq", "cfq")
AD = SchedulerPair("anticipatory", "deadline")
DD = SchedulerPair("deadline", "deadline")
NN = SchedulerPair("noop", "noop")

SMALL_CLUSTER = ClusterConfig(
    hosts=1,
    vms_per_host=2,
    pagecache=PageCacheParams(
        capacity_bytes=40 * MB,
        dirty_background_bytes=2 * MB,
        dirty_limit_bytes=8 * MB,
    ),
)


def small_meter():
    return SwitchCostMeter(SMALL_CLUSTER, nbytes=48 * MB, seeds=(0,),
                           sweep=serial_sweep())


@pytest.fixture(scope="module")
def meter():
    return small_meter()


def test_pure_time_positive_and_cached(meter):
    t1 = meter.pure_time(CC)
    n = meter.sweep.stats.executed
    t2 = meter.pure_time(CC)
    assert t1 > 0
    assert t1 == t2  # cached
    assert meter.sweep.stats.executed == n
    meter.matrix([CC, DD])
    n = meter.sweep.stats.executed
    meter.matrix([CC, DD])
    assert meter.sweep.stats.executed == n  # a repeat simulates nothing


def test_transition_cost_matches_matrix(meter):
    """One-at-a-time and batched measurements agree exactly."""
    assert meter.transition_cost(AD, DD) == \
        small_meter().matrix([AD, DD]).cost(AD, DD)


def test_transition_cost_nonzero(meter):
    cost = meter.transition_cost(CC, AD)
    # The drain + cold restart must cost something; it may in odd cases
    # be mildly negative if the destination half overperforms, but not
    # hugely so.
    assert cost > -meter.pure_time(CC) * 0.5


def test_same_to_same_switch_costly(meter):
    """The paper: re-assigning the same pair is not free."""
    cost = meter.transition_cost(CC, CC)
    assert cost > 0


def test_noncommutative_costs(meter):
    """cost(a->b) != cost(b->a) in general (paper Fig. 5)."""
    ab = meter.transition_cost(AD, NN)
    ba = meter.transition_cost(NN, AD)
    assert ab != pytest.approx(ba, rel=0.01)


def test_matrix_shape_and_contents(meter):
    pairs = [CC, DD]
    matrix = meter.matrix(pairs)
    assert set(matrix.costs) == {(a, b) for a in pairs for b in pairs}
    assert set(matrix.pure_times) == set(pairs)
    assert matrix.min_cost <= matrix.max_cost
    assert matrix.asymmetry(CC, DD) >= 0


def test_meter_forces_single_host():
    meter = SwitchCostMeter(ClusterConfig(hosts=4, vms_per_host=2))
    assert meter.cluster_config.hosts == 1


def test_meter_defaults_to_shared_sweep_runner():
    assert SwitchCostMeter(SMALL_CLUSTER).sweep is default_runner()


def test_meter_rejects_empty_seeds():
    with pytest.raises(ValueError):
        SwitchCostMeter(SMALL_CLUSTER, seeds=())


# -- prediction model --------------------------------------------------------------


def test_model_fits_and_predicts(meter):
    pairs = [CC, AD, NN]
    matrix = meter.matrix(pairs)
    model = SwitchCostModel()
    rms = model.fit(matrix)
    assert rms >= 0
    # Predictions should be in the ballpark of the measured range.
    span = matrix.max_cost - matrix.min_cost
    for (src, dst), cost in matrix.costs.items():
        assert abs(model.predict(src, dst) - cost) <= max(span, 1.0) * 1.5


def test_model_unfitted_raises():
    model = SwitchCostModel()
    with pytest.raises(RuntimeError):
        model.predict(CC, DD)
