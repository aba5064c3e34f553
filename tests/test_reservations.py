import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_context
from tensortier.config import Destination, Direction
from tensortier.eviction import SchedulerState
from tensortier.reservations import LaneReservations, ReservationOverlapError


def test_reserve_and_release():
    lane = LaneReservations()
    lane.reserve(10, 20, "a")
    lane.reserve(20, 30, "b")
    with pytest.raises(ReservationOverlapError):
        lane.reserve(15, 25, "c")
    with pytest.raises(ReservationOverlapError):
        lane.reserve(5, 11, "c")
    with pytest.raises(ValueError):
        lane.reserve(5, 5, "c")
    lane.release("a")
    lane.reserve(15, 20, "c")
    assert [iv[:2] for iv in lane.intervals()] == [(15, 20), (20, 30)]


def test_earliest_slot():
    lane = LaneReservations()
    assert lane.earliest_slot(10, 0) == 0
    lane.reserve(0, 10, "a")
    lane.reserve(15, 30, "b")
    assert lane.earliest_slot(5, 0) == 10
    assert lane.earliest_slot(6, 0) == 30
    assert lane.earliest_slot(5, 12) == 30  # gap at 12 is only 3 wide
    assert lane.earliest_slot(6, 0, hi=20) is None
    assert lane.earliest_slot(6, 0, hi=36) == 30
    assert lane.earliest_slot(5, 0, hi=15) == 10


def test_latest_slot():
    lane = LaneReservations()
    assert lane.latest_slot(10, 50) == 40
    lane.reserve(20, 40, "a")
    assert lane.latest_slot(10, 50) == 40
    assert lane.latest_slot(15, 50) == 5
    assert lane.latest_slot(15, 50, lo=10) is None
    assert lane.latest_slot(5, 40) == 15
    lane.reserve(0, 15, "b")
    assert lane.latest_slot(5, 40) == 15
    assert lane.latest_slot(6, 40) is None


def test_busy_within():
    lane = LaneReservations()
    lane.reserve(10, 20, "a")
    lane.reserve(30, 40, "b")
    assert lane.busy_within(0, 50) == 20
    assert lane.busy_within(15, 35) == 10
    assert lane.busy_within(20, 30) == 0


def test_channel_reservations_are_independent(s1_trace, device):
    lanes = SchedulerState.initial(make_context(s1_trace, device)).lanes
    assert set(lanes) == {(dest, d) for dest in Destination for d in Direction}
    lanes[Destination.SSD, Direction.TO_DEVICE].reserve(0, 10, "x")
    assert (lanes[Destination.SSD, Direction.FROM_DEVICE].earliest_slot(10, 0)
            == 0)
    assert (lanes[Destination.HOST, Direction.TO_DEVICE].earliest_slot(10, 0)
            == 0)


def _no_overlap(lane, start, end):
    return all(e <= start or s >= end for s, e, _ in lane.intervals())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 80), st.integers(1, 15)),
                max_size=8),
       st.integers(1, 20), st.integers(0, 90))
def test_slots_are_valid_and_extremal(bookings, duration, point):
    lane = LaneReservations()
    for i, (lo, dur) in enumerate(bookings):
        start = lane.earliest_slot(dur, lo)
        lane.reserve(start, start + dur, i)

    s = lane.earliest_slot(duration, point)
    assert s >= point
    assert _no_overlap(lane, s, s + duration)
    if s > point:  # minimality: one step earlier must collide
        assert not _no_overlap(lane, s - 1, s - 1 + duration)

    hi = point + 200
    t = lane.latest_slot(duration, hi)
    if t is None:
        assert any(not _no_overlap(lane, c, c + duration)
                   for c in range(0, hi - duration + 1))
    else:
        assert t + duration <= hi
        assert _no_overlap(lane, t, t + duration)
        if t + duration < hi:  # maximality
            assert not _no_overlap(lane, t + 1, t + 1 + duration)


def _linear_latest(ivals, duration, hi, lo):
    end = hi
    for s, e, _ in reversed(ivals):
        if s >= end:
            continue
        if end - max(e, lo) >= duration:
            return end - duration
        end = s
        if end - lo < duration:
            return None
    return end - duration if end - lo >= duration else None


def _linear_busy(ivals, lo, hi):
    return sum(min(e, hi) - max(s, lo) for s, e, _ in ivals
               if e > lo and s < hi)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 200), max_size=24, unique=True),
       st.lists(st.booleans(), min_size=24, max_size=24),
       st.integers(-10, 210), st.integers(0, 60), st.integers(1, 30),
       st.integers(-10, 120))
def test_bisected_scans_match_linear_reference(points, keep, lo, width,
                                               duration, slot_lo):
    """busy_within and latest_slot bisect to the window; a linear scan over
    every interval gives the same answers."""
    points.sort()
    lane = LaneReservations()
    # a subset of the gaps between consecutive points: disjoint intervals,
    # neighbours touch when both gaps are kept
    for k in range(len(points) - 1):
        if keep[k]:
            lane.reserve(points[k], points[k + 1], k)
    ivals = lane.intervals()
    hi = lo + width
    assert lane.busy_within(lo, hi) == _linear_busy(ivals, lo, hi)
    for end in (hi, lo + duration, 210):
        assert (lane.latest_slot(duration, end, slot_lo)
                == _linear_latest(ivals, duration, end, slot_lo))
