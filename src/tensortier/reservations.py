"""Lane reservations on the single-iteration time axis.

Each (destination, direction) pair is an independent lane holding disjoint
busy intervals. The planner books eviction and prefetch windows here; slot
search is what turns "earliest/latest feasible transfer" into concrete times.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


class ReservationOverlapError(RuntimeError):
    """Internal guard: a caller tried to double-book a lane."""


class LaneReservations:
    """Disjoint (start, end, owner) intervals, sorted by start."""

    __slots__ = ("_ivals",)

    def __init__(self, ivals=()):
        self._ivals: list[tuple[int, int, object]] = list(ivals)

    def intervals(self):
        return list(self._ivals)

    def copy(self):
        """An independent lane holding the same intervals."""
        return LaneReservations(self._ivals)

    def reserve(self, start, end, owner):
        if start >= end:
            raise ValueError(f"empty reservation [{start}, {end})")
        i = bisect_right(self._ivals, (start,) + (float("inf"),) * 2)
        if i > 0 and self._ivals[i - 1][1] > start:
            raise ReservationOverlapError(f"[{start}, {end}) overlaps {self._ivals[i - 1]}")
        if i < len(self._ivals) and self._ivals[i][0] < end:
            raise ReservationOverlapError(f"[{start}, {end}) overlaps {self._ivals[i]}")
        self._ivals.insert(i, (start, end, owner))

    def release(self, owner):
        self._ivals = [iv for iv in self._ivals if iv[2] != owner]

    def earliest_slot(self, duration, lo, hi=None):
        """Earliest s >= lo with [s, s+duration) free (and s+duration <= hi)."""
        t = lo
        i = bisect_left(self._ivals, (lo + 1,)) if self._ivals else 0
        # step back one: the previous interval may still cover lo
        if i > 0 and self._ivals[i - 1][1] > t:
            t = self._ivals[i - 1][1]
        while i < len(self._ivals):
            s, e, _ = self._ivals[i]
            if s - t >= duration:
                break
            if e > t:
                t = e
            i += 1
        if hi is not None and t + duration > hi:
            return None
        return t

    def latest_slot(self, duration, hi, lo=0):
        """Latest s >= lo with [s, s+duration) free and s+duration <= hi."""
        end = hi
        # walk back from the last interval that starts before hi; disjoint
        # intervals end no later than the next one starts
        ivals = self._ivals
        for k in range(bisect_left(ivals, (hi,)) - 1, -1, -1):
            s, e, _ = ivals[k]
            if end - max(e, lo) >= duration:
                return end - duration
            end = s
            if end - lo < duration:
                return None
        if end - lo >= duration:
            return end - duration
        return None

    def busy_within(self, lo, hi):
        """Busy time inside [lo, hi)."""
        ivals = self._ivals
        i = bisect_left(ivals, (lo,))
        # step back one: the previous interval may still cover lo
        if i > 0 and ivals[i - 1][1] > lo:
            i -= 1
        total = 0
        n = len(ivals)
        while i < n:
            s, e, _ = ivals[i]
            if s >= hi:
                break
            total += min(e, hi) - max(s, lo)
            i += 1
        return total

