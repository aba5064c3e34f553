"""Step curves: integer piecewise-constant functions of time.

The planner uses them for GPU memory pressure and host occupancy. There is
one implementation, in pure Python (`_curve_py`); BACKEND names it for run
records.
"""

from tensortier._curve_py import StepCurve

BACKEND = "py"

__all__ = ["StepCurve", "BACKEND", "wrap_pieces", "wrap_add", "wrap_max",
           "wrap_window_overflow_area"]


def wrap_pieces(t0, t1, horizon):
    """Split an interval on the unrolled time axis into in-iteration pieces.

    [t0, t1) may extend past the iteration boundary (t1 > horizon) or lie
    entirely in the next iteration's prefix (t0 >= horizon); either way the
    result is a list of non-empty intervals within [0, horizon).
    """
    if t0 >= t1:
        return []
    if t0 >= horizon:
        t0 -= horizon
        t1 -= horizon
        if t1 > horizon:
            raise ValueError("interval longer than one iteration")
        return [(t0, t1)]
    if t1 <= horizon:
        return [(t0, t1)]
    if t1 - horizon > t0:
        raise ValueError("interval longer than one iteration")
    return [(t0, horizon), (0, t1 - horizon)]


def wrap_add(curve, t0, t1, delta):
    for a, b in wrap_pieces(t0, t1, curve.horizon):
        curve.add(a, b, delta)


def wrap_max(curve, t0, t1):
    best = 0
    for a, b in wrap_pieces(t0, t1, curve.horizon):
        m = curve.max_over(a, b)
        if m > best:
            best = m
    return best


def wrap_window_overflow_area(curve, cap, clamp, t0, t1):
    total = 0
    for a, b in wrap_pieces(t0, t1, curve.horizon):
        total += curve.window_overflow_area(cap, clamp, a, b)
    return total
