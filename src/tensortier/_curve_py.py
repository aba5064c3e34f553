"""Step curves: integer piecewise-constant functions of time.

`window_overflow_area` is the planner's benefit query, asked once per live
candidate per round with the same (cap, clamp) for every candidate of one
padded size. It walks the segments of the window until the segments walked
for that key since the curve last changed exceed the curve's segment count;
from then on it answers from a prefix sum of the clamped overflow, built for
that key, by two bisects. That is ski rental: the work is at most twice the
cheaper of walking every query and building up front. Short windows over a
curve with many distinct clamps keep walking; many queries with one clamp
go to the prefix. `add` drops every prefix and count, since any change can
move every later prefix entry.
"""

from bisect import bisect_right


class StepCurve:
    """Integer piecewise-constant function on [0, horizon).

    Segment i covers [times[i], times[i+1]), the last one running to the
    horizon. Adjacent equal-valued segments are kept merged so breakpoints()
    is canonical and equality is structural.
    """

    __slots__ = ("horizon", "_times", "_vals", "_overflow_index")

    def __init__(self, horizon=0):
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.horizon = horizon
        self._times = [0]
        self._vals = [0]
        # (cap, clamp) -> segments walked since the last change (int), or
        # the prefix sums of the clamped overflow once built (list)
        self._overflow_index = {}

    def copy(self):
        c = StepCurve.__new__(StepCurve)
        c.horizon = self.horizon
        c._times = self._times[:]
        c._vals = self._vals[:]
        c._overflow_index = {}
        return c

    def _seg(self, t):
        return bisect_right(self._times, t) - 1

    def _split(self, t):
        """Ensure a breakpoint at t (0 <= t <= horizon); return its index."""
        if t >= self.horizon:
            return len(self._times)
        i = self._seg(t)
        if self._times[i] == t:
            return i
        self._times.insert(i + 1, t)
        self._vals.insert(i + 1, self._vals[i])
        return i + 1

    def _merge_at(self, k):
        if 0 < k < len(self._times) and self._vals[k] == self._vals[k - 1]:
            del self._times[k]
            del self._vals[k]

    def add(self, t0, t1, delta):
        """Add delta on [t0, t1), clipped to the domain."""
        t0 = max(t0, 0)
        t1 = min(t1, self.horizon)
        if t0 >= t1 or delta == 0:
            return
        self._overflow_index.clear()
        i = self._split(t0)
        j = self._split(t1)
        for k in range(i, j):
            self._vals[k] += delta
        # interior adjacencies are unchanged by a uniform delta; only the
        # window edges can need re-merging
        self._merge_at(j)
        self._merge_at(i)

    def value_at(self, t):
        if not 0 <= t < self.horizon:
            raise ValueError(f"time {t} outside [0, {self.horizon})")
        return self._vals[self._seg(t)]

    def max_over(self, t0, t1):
        """Max value on [t0, t1) clipped to the domain; 0 if empty."""
        t0 = max(t0, 0)
        t1 = min(t1, self.horizon)
        if t0 >= t1:
            return 0
        k = self._seg(t0)
        best = self._vals[k]
        k += 1
        n = len(self._times)
        while k < n and self._times[k] < t1:
            if self._vals[k] > best:
                best = self._vals[k]
            k += 1
        return best

    def max_value(self):
        if self.horizon == 0:
            return 0
        return max(self._vals)

    def area(self):
        """Integral of the curve over the whole domain."""
        total = 0
        n = len(self._times)
        for k in range(n):
            end = self._times[k + 1] if k + 1 < n else self.horizon
            total += self._vals[k] * (end - self._times[k])
        return total

    def overflow_area(self, cap):
        """Integral of max(0, value - cap) over the whole domain."""
        total = 0
        n = len(self._times)
        for k in range(n):
            if self._vals[k] > cap:
                end = self._times[k + 1] if k + 1 < n else self.horizon
                total += (self._vals[k] - cap) * (end - self._times[k])
        return total

    def window_overflow_area(self, cap, clamp, t0, t1):
        """Integral of min(clamp, max(0, value - cap)) over [t0, t1)."""
        if t0 < 0:
            t0 = 0
        if t1 > self.horizon:
            t1 = self.horizon
        if t0 >= t1:
            return 0
        times = self._times
        vals = self._vals
        key = (cap, clamp)
        walked = self._overflow_index.get(key, 0)
        if type(walked) is list:
            prefix = walked
            i = bisect_right(times, t0) - 1
            j = bisect_right(times, t1, i) - 1
            total = prefix[j] - prefix[i]
            over = vals[i] - cap
            if over > 0:
                total -= (over if over < clamp else clamp) * (t0 - times[i])
            over = vals[j] - cap
            if over > 0:
                total += (over if over < clamp else clamp) * (t1 - times[j])
            return total
        total = 0
        n = len(times)
        k = start = bisect_right(times, t0) - 1
        while k < n and times[k] < t1:
            over = vals[k] - cap
            if over > 0:
                if over > clamp:
                    over = clamp
                end = times[k + 1] if k + 1 < n else self.horizon
                total += over * (min(end, t1) - max(times[k], t0))
            k += 1
        walked += k - start
        if walked > n:
            self._overflow_index[key] = self._overflow_prefix(cap, clamp)
        else:
            self._overflow_index[key] = walked
        return total

    def _overflow_prefix(self, cap, clamp):
        """prefix[k]: integral of the clamped overflow over [0, times[k])."""
        times = self._times
        prefix = [0]
        acc = 0
        for k in range(1, len(times)):
            over = self._vals[k - 1] - cap
            if over > 0:
                acc += min(over, clamp) * (times[k] - times[k - 1])
            prefix.append(acc)
        return prefix

    def pieces_between(self, lo, hi, t0, t1):
        """Maximal intervals inside [t0, t1) where lo < value < hi."""
        t0 = max(t0, 0)
        t1 = min(t1, self.horizon)
        if t0 >= t1:
            return []
        times = self._times
        vals = self._vals
        n = len(times)
        out = []
        k = bisect_right(times, t0) - 1
        while k < n and times[k] < t1:
            if lo < vals[k] < hi:
                a = times[k] if times[k] > t0 else t0
                b = times[k + 1] if k + 1 < n else self.horizon
                if b > t1:
                    b = t1
                if out and out[-1][1] == a:
                    out[-1] = (out[-1][0], b)
                else:
                    out.append((a, b))
            k += 1
        return out

    def earliest_below(self, cap, lo, hi):
        """Smallest t in [lo, hi] such that max_over(t, hi) <= cap.

        hi always qualifies (empty suffix), so a result exists.
        """
        if not (0 <= lo <= hi <= self.horizon):
            raise ValueError("window outside domain")
        if lo == hi:
            return lo
        k = self._seg(hi - 1)
        while True:
            if self._vals[k] > cap:
                end = self._times[k + 1] if k + 1 < len(self._times) else self.horizon
                return min(end, hi)
            if self._times[k] <= lo:
                return lo
            k -= 1

    def breakpoints(self):
        """Canonical (time, value) pairs; empty for a zero-length domain."""
        if self.horizon == 0:
            return []
        return list(zip(self._times, self._vals))

    def segments(self):
        """List of (start, end, value) triples covering the domain."""
        out = []
        n = len(self._times)
        for k in range(n):
            end = self._times[k + 1] if k + 1 < n else self.horizon
            if end > self._times[k]:
                out.append((self._times[k], end, self._vals[k]))
        return out

    def __eq__(self, other):
        if not isinstance(other, StepCurve):
            return NotImplemented
        return self.horizon == other.horizon and self.breakpoints() == other.breakpoints()

    def __repr__(self):
        return f"StepCurve(horizon={self.horizon}, breakpoints={self.breakpoints()})"
