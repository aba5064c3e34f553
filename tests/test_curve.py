"""Step-curve core against a dense brute-force model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortier import curve as curve_mod
from tensortier.curve import StepCurve


class DenseCurve:
    """Reference model: one value per unit of time."""

    def __init__(self, horizon):
        self.horizon = horizon
        self.vals = [0] * horizon

    def add(self, t0, t1, delta):
        for t in range(max(t0, 0), min(t1, self.horizon)):
            self.vals[t] += delta

    def value_at(self, t):
        return self.vals[t]

    def window(self, t0, t1):
        """The values on [t0, t1) clipped to the domain, empty if nothing
        is left (a slice bound below 0 would count from the end)."""
        t0, t1 = max(t0, 0), min(t1, self.horizon)
        return self.vals[t0:t1] if t0 < t1 else []

    def max_over(self, t0, t1):
        return max(self.window(t0, t1), default=0)

    def max_value(self):
        return max(self.vals) if self.vals else 0

    def area(self):
        return sum(self.vals)

    def overflow_area(self, cap):
        return sum(max(0, v - cap) for v in self.vals)

    def window_overflow_area(self, cap, clamp, t0, t1):
        return sum(min(clamp, max(0, v - cap)) for v in self.window(t0, t1))

    def pieces_between(self, lo, hi, t0, t1):
        out = []
        for t in range(max(t0, 0), min(t1, self.horizon)):
            if lo < self.vals[t] < hi:
                if out and out[-1][1] == t:
                    out[-1] = (out[-1][0], t + 1)
                else:
                    out.append((t, t + 1))
        return out

    def earliest_below(self, cap, lo, hi):
        for t in range(lo, hi):
            if self.max_over(t, hi) <= cap:
                return t
        return hi  # empty suffix qualifies vacuously


def test_basic_shape():
    c = StepCurve(100)
    assert c.max_value() == 0
    assert c.area() == 0
    c.add(10, 40, 7)
    c.add(20, 60, -2)
    assert c.value_at(0) == 0
    assert c.value_at(10) == 7
    assert c.value_at(25) == 5
    assert c.value_at(45) == -2
    assert c.value_at(60) == 0
    assert c.max_value() == 7
    assert c.area() == 7 * 30 - 2 * 40


def test_adjacent_segments_stay_merged():
    c = StepCurve(100)
    c.add(0, 50, 3)
    c.add(50, 100, 3)
    assert list(c.breakpoints()) == [(0, 3)]
    c.add(20, 30, 1)
    c.add(20, 30, -1)
    assert list(c.breakpoints()) == [(0, 3)]


def test_add_outside_domain_is_clipped():
    c = StepCurve(10)
    c.add(-5, 3, 2)
    c.add(8, 99, 4)
    c.add(50, 60, 1)
    assert c.value_at(0) == 2
    assert c.value_at(9) == 4
    assert c.area() == 2 * 3 + 4 * 2


def test_value_at_rejects_out_of_domain():
    c = StepCurve(10)
    with pytest.raises(ValueError):
        c.value_at(10)
    with pytest.raises(ValueError):
        c.value_at(-1)


def test_earliest_below_prefix():
    c = StepCurve(100)
    c.add(0, 30, 10)
    c.add(30, 70, 4)
    # suffix max drops to 4 once t reaches 30
    assert c.earliest_below(4, 0, 100) == 30
    assert c.earliest_below(10, 0, 100) == 0
    assert c.earliest_below(0, 0, 100) == 70
    assert c.earliest_below(-1, 0, 100) == 100


ops = st.lists(
    st.tuples(st.integers(-5, 70), st.integers(-5, 70),
              st.integers(-50, 50)),
    min_size=0, max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(ops=ops, cap=st.integers(-20, 120), clamp=st.integers(1, 100),
       t0=st.integers(0, 64), t1=st.integers(0, 64))
def test_backends_match_dense_model(ops, cap, clamp, t0, t1):
    horizon = 64
    dense = DenseCurve(horizon)
    c = StepCurve(horizon)
    for a, b, delta in ops:
        lo, hi = min(a, b), max(a, b)
        dense.add(lo, hi, delta)
        c.add(lo, hi, delta)
    lo, hi = min(t0, t1), max(t0, t1)
    assert c.max_value() == dense.max_value()
    assert c.area() == dense.area()
    assert c.overflow_area(cap) == dense.overflow_area(cap)
    assert c.max_over(lo, hi) == dense.max_over(lo, hi)
    assert (c.window_overflow_area(cap, clamp, lo, hi)
            == dense.window_overflow_area(cap, clamp, lo, hi))
    assert c.earliest_below(cap, lo, horizon) == dense.earliest_below(cap, lo, horizon)
    assert (c.pieces_between(cap, cap + clamp, lo, hi)
            == dense.pieces_between(cap, cap + clamp, lo, hi))
    for t in range(horizon):
        assert c.value_at(t) == dense.value_at(t)
    points = list(c.breakpoints())
    times = [t for t, _ in points]
    assert times == sorted(set(times))
    # canonical form: no two adjacent segments share a value
    values = [v for _, v in points]
    assert all(a != b for a, b in zip(values, values[1:]))


# breakpoints at 0, 8, 20, 32, 40 and 48 of a 64 us horizon; over cap 5
# the segments read 0, 25, 15, 37, 7, 0
_EDGE_ADDS = ((8, 40, 30), (20, 32, -10), (32, 48, 12))


@pytest.mark.parametrize("t0, t1", [
    (10, 15),        # inside one segment
    (8, 32),         # both ends on breakpoints
    (20, 21), (47, 48), (48, 49),   # one unit at a breakpoint
    (9, 40), (8, 39),               # one end on a breakpoint
    (30, 64), (45, 99), (0, 64),    # t1 at or past the horizon
    (-5, 25), (-5, 8), (-9, 0),     # t0 < 0
    (-9, -1),                       # wholly below 0
    (63, 64), (64, 70), (25, 25)])
@pytest.mark.parametrize("clamp", [3, 14, 100])  # below, inside, above
def test_window_overflow_area_at_the_window_ends(t0, t1, clamp):
    """A walk and a prefix answer the dense sum; the walk takes the
    segments meeting the window at whole width between its ends and counts
    each one it meets, so the prefix builds at the same query."""
    horizon, cap = 64, 5
    dense = DenseCurve(horizon)
    c = StepCurve(horizon)
    for a, b, delta in _EDGE_ADDS:
        dense.add(a, b, delta)
        c.add(a, b, delta)
    want = dense.window_overflow_area(cap, clamp, t0, t1)
    times = [t for t, _ in c.breakpoints()] + [horizon]
    lo, hi = max(t0, 0), min(t1, horizon)
    met = sum(a < hi and b > lo for a, b in zip(times, times[1:])) * (lo < hi)
    walker = c.copy()
    assert walker.window_overflow_area(cap, clamp, t0, t1) == want
    assert walker._walked.get((cap, clamp), 0) == met
    for _ in range(2):   # two full-domain walks build the prefix
        c.window_overflow_area(cap, clamp, 0, horizon)
    assert (cap, clamp) in c._prefixes
    assert c.window_overflow_area(cap, clamp, t0, t1) == want


@pytest.mark.parametrize("t0, t1, want", [
    (-9, -1, 0), (-9, 0, 0),        # wholly below 0: the empty max
    (-5, 9, 30), (-5, 8, 0),        # t0 < 0
    (40, 99, 12), (64, 70, 0)])     # at or past the horizon
def test_max_over_at_the_window_ends(t0, t1, want):
    """The curve and the dense model read only the window's part inside
    the domain, and 0 where none is left."""
    horizon = 64
    dense = DenseCurve(horizon)
    c = StepCurve(horizon)
    for a, b, delta in _EDGE_ADDS:
        dense.add(a, b, delta)
        c.add(a, b, delta)
    assert c.max_over(t0, t1) == dense.max_over(t0, t1) == want


windows = st.lists(st.tuples(st.integers(0, 70), st.integers(0, 70)),
                   min_size=1, max_size=25)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.tuples(ops, windows), min_size=1, max_size=4),
       cap=st.integers(-20, 60), clamps=st.lists(st.integers(1, 100),
                                                 min_size=1, max_size=3),
       copy_at=st.integers(0, 4))
def test_window_overflow_area_across_adds(steps, cap, clamps, copy_at):
    """Repeated queries per (cap, clamp) walk, then use the prefix index;
    an add must bring a prefix queried since the previous add to the new
    curve and drop the rest, and a copy must start the index over."""
    horizon = 64
    dense = DenseCurve(horizon)
    c = StepCurve(horizon)
    for step, (adds, queries) in enumerate(steps):
        if step == copy_at:
            c = c.copy()
        for a, b, delta in adds:
            lo, hi = min(a, b), max(a, b)
            dense.add(lo, hi, delta)
            c.add(lo, hi, delta)
        for a, b in queries:
            lo, hi = min(a, b), max(a, b)
            for clamp in clamps:
                assert (c.window_overflow_area(cap, clamp, lo, hi)
                        == dense.window_overflow_area(cap, clamp, lo, hi))


edges = st.sampled_from([0, 1, 7, 8, 20, 32, 40, 63, 64])


@settings(max_examples=200, deadline=None)
@given(adds=st.lists(st.tuples(edges, edges, st.integers(-30, 30),
                               st.integers(1, 3), st.booleans()),
                     min_size=1, max_size=20),
       cap=st.integers(-10, 30), clamps=st.lists(st.integers(1, 40),
                                                 min_size=1, max_size=3),
       copy_at=st.integers(0, 20))
def test_patched_prefix_answers_between_single_adds(adds, cap, clamps,
                                                    copy_at):
    """Full-domain queries build each clamp's prefix at once; every later
    add patches it and the queries after it read the patched prefix. The
    edges repeat, so adds split and merge at both ends and touch 0 and the
    horizon; an add that is undone right away merges at both ends. A twin
    curve that is never queried takes the same adds and keeps the same
    breakpoints."""
    horizon = 64
    dense = DenseCurve(horizon)
    c = StepCurve(horizon)
    twin = StepCurve(horizon)  # never queried, so it holds no prefix
    for step, (a, b, delta, repeats, undo) in enumerate(adds):
        if step == copy_at:
            c = c.copy()
        lo, hi = min(a, b), max(a, b)
        for change in (delta, -delta) if undo else (delta,):
            dense.add(lo, hi, change)
            c.add(lo, hi, change)
            twin.add(lo, hi, change)
            assert c.breakpoints() == twin.breakpoints()
            for _ in range(repeats):
                for clamp in clamps:
                    for t0, t1 in ((0, horizon), (lo, hi), (hi, horizon),
                                   (lo // 2, hi + 3)):
                        assert (c.window_overflow_area(cap, clamp, t0, t1)
                                == dense.window_overflow_area(cap, clamp,
                                                              t0, t1))


def test_queried_prefix_is_built_once_across_adds(monkeypatch):
    built = []
    build = StepCurve._overflow_prefix

    def counting_build(self, cap, clamp):
        built.append((cap, clamp))
        return build(self, cap, clamp)

    monkeypatch.setattr(StepCurve, "_overflow_prefix", counting_build)
    c = StepCurve(100)
    for step in range(20):
        c.add(step * 5, step * 5 + 30, 3 if step % 3 else -2)
        # two full-domain walks pass the segment count, which builds it
        for _ in range(2):
            assert (c.window_overflow_area(4, 5, 0, 100)
                    == c.copy().window_overflow_area(4, 5, 0, 100))
    assert built == [(4, 5)]


def test_copy_keeps_its_own_overflow_index():
    c = StepCurve(100)
    c.add(0, 100, 5)
    c.add(50, 100, 3)
    for _ in range(3):  # enough repeats to build the prefix index
        assert c.window_overflow_area(0, 10, 0, 100) == 650
    d = c.copy()
    d.add(0, 50, 5)
    for _ in range(3):
        assert d.window_overflow_area(0, 10, 0, 100) == 900
    assert c.window_overflow_area(0, 10, 0, 100) == 650


def test_wrap_pieces_cases():
    assert curve_mod.wrap_pieces(10, 20, 100) == [(10, 20)]
    assert curve_mod.wrap_pieces(90, 120, 100) == [(90, 100), (0, 20)]
    assert curve_mod.wrap_pieces(100, 130, 100) == [(0, 30)]
    assert curve_mod.wrap_pieces(15, 15, 100) == []
    with pytest.raises(ValueError):
        curve_mod.wrap_pieces(10, 130, 100)
    with pytest.raises(ValueError):
        curve_mod.wrap_pieces(100, 210, 100)


wrap_ops = st.lists(
    st.tuples(st.integers(0, 63), st.integers(1, 64), st.integers(-50, 50)),
    min_size=0, max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(ops=wrap_ops, t=st.integers(0, 63))
def test_wrap_add_matches_two_piece_sum(ops, t):
    """A wrapping [a, b) add equals add on [a, total) plus [0, b - total)."""
    total = 64
    direct = StepCurve(total)
    pieces = StepCurve(total)
    for start, length, delta in ops:
        end = start + length
        curve_mod.wrap_add(direct, start, end, delta)
        pieces.add(start, min(end, total), delta)
        if end > total:
            pieces.add(0, end - total, delta)
    assert direct.value_at(t) == pieces.value_at(t)
    # wrap_max floors at zero: pressure curves never go negative
    assert curve_mod.wrap_max(direct, 0, total) == max(0, direct.max_value())
