"""Step curves: integer piecewise-constant functions of time.

The planner uses them for GPU memory pressure and host occupancy;
BACKEND names the one implementation for run records.

`window_overflow_area` is the planner's benefit query, asked once per live
candidate per round with the same (cap, clamp) for every candidate of one
padded size. It walks the segments of the window until the segments walked
for that key since the curve last changed exceed the curve's segment count;
from then on it answers from a prefix sum of the clamped overflow, built for
that key, by two bisects. That is ski rental: the work is at most twice the
cheaper of walking every query and building up front. Short windows over a
curve with many distinct clamps keep walking; many queries with one clamp
go to the prefix. Both find the first and last segments meeting the window
by bisection; a walk sums the segments from the first up to the last at
whole width, as the prefix difference does, and both then clip the two
ends. A walk counts every segment it meets, the last one included.

A prefix lives on across `add` only while it is used:

- kept: between adds, a prefix is exact, since nothing it sums changed.
- patched: `add` brings each prefix queried since the previous add to the
  new curve. It mirrors the two splits (a new entry is the entry before it
  plus the old overflow of the segment before it), adds to each entry in
  (t0, t1] the change in area up to it and to every entry after t1 the
  whole change, and deletes the entries of merged breakpoints. An entry is
  an integral from 0, so the entries up to t0 do not move, the ones after
  t1 all move by the same amount, and a merged breakpoint's entry is only a
  midpoint of the sums either side of it. The result equals a rebuild.
- dropped: a prefix not queried since the previous add goes, and so does
  every walk count. A patch costs a pass over the prefix from t0 on, so a
  key that went quiet goes back to walking and to the ski-rental rule;
  `copy` starts with no index at all.
"""

from bisect import bisect_left, bisect_right

BACKEND = "py"

__all__ = ["StepCurve", "BACKEND", "wrap_pieces", "wrap_add", "wrap_max",
           "wrap_window_overflow_area"]


class StepCurve:
    """Integer piecewise-constant function on [0, horizon).

    Segment i covers [times[i], times[i+1]), the last one running to the
    horizon. Adjacent equal-valued segments are kept merged so breakpoints()
    is canonical and equality is structural.
    """

    __slots__ = ("horizon", "_times", "_vals", "_walked", "_prefixes",
                 "_kept")

    def __init__(self, horizon=0):
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        self.horizon = horizon
        self._times = [0]
        self._vals = [0]
        # per (cap, clamp) queried since the last add: the segments walked
        # since then, or the prefix sums of the clamped overflow
        self._walked = {}
        self._prefixes = {}
        # per (cap, clamp): a prefix patched by the last add, not queried
        # since
        self._kept = {}

    def copy(self):
        c = StepCurve.__new__(StepCurve)
        c.horizon = self.horizon
        c._times = self._times[:]
        c._vals = self._vals[:]
        c._walked = {}
        c._prefixes = {}
        c._kept = {}
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
        """Drop the breakpoint at k if it no longer changes the value;
        True if it was dropped."""
        if 0 < k < len(self._times) and self._vals[k] == self._vals[k - 1]:
            del self._times[k]
            del self._vals[k]
            return True
        return False

    def add(self, t0, t1, delta):
        """Add delta on [t0, t1), clipped to the domain, bringing each
        prefix queried since the previous add to the new curve and dropping
        the rest (module docstring)."""
        if t0 < 0:
            t0 = 0
        if t1 > self.horizon:
            t1 = self.horizon
        if t0 >= t1 or delta == 0:
            return
        self._walked.clear()
        times = self._times
        vals = self._vals
        n = len(times)
        i = self._split(t0)
        split_i = len(times) > n
        j = self._split(t1)
        split_j = len(times) > n + split_i
        for k in range(i, j):
            vals[k] += delta
        prefixes = self._prefixes
        for (cap, clamp), prefix in prefixes.items():
            self._patch(prefix, cap, clamp, i, j, split_i, split_j, delta)
        # interior adjacencies are unchanged by a uniform delta; only the
        # window edges can need re-merging
        merged_j = self._merge_at(j)
        merged_i = self._merge_at(i)
        for prefix in prefixes.values():
            if merged_j:
                del prefix[j]
            if merged_i:
                del prefix[i]
        self._kept = prefixes
        self._prefixes = {}

    def _patch(self, prefix, cap, clamp, i, j, split_i, split_j, delta):
        """Bring a prefix of the curve before add(delta) on segments [i, j)
        to the curve after it, before the edges are merged (module
        docstring)."""
        times = self._times
        vals = self._vals
        n = len(times)
        if split_i:
            over = vals[i - 1] - cap
            prefix.insert(i, prefix[i - 1] + (
                (over if over < clamp else clamp) * (times[i] - times[i - 1])
                if over > 0 else 0))
        if split_j:
            over = vals[j - 1] - delta - cap
            prefix.insert(j, prefix[j - 1] + (
                (over if over < clamp else clamp) * (times[j] - times[j - 1])
                if over > 0 else 0))
        moved = 0
        for k in range(i, j):
            new = vals[k] - cap
            old = new - delta
            new = (new if new < clamp else clamp) if new > 0 else 0
            old = (old if old < clamp else clamp) if old > 0 else 0
            if new != old:
                end = times[k + 1] if k + 1 < n else self.horizon
                moved += (new - old) * (end - times[k])
            if moved and k + 1 < n:
                prefix[k + 1] += moved
        if moved and j + 1 < n:
            prefix[j + 1:] = [p + moved for p in prefix[j + 1:]]

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
        prefix = self._prefixes.get(key)
        if prefix is None and self._kept:
            # first query since the last add: a prefix that add patched
            # comes back into use
            prefix = self._kept.pop(key, None)
            if prefix is not None:
                self._prefixes[key] = prefix
        # segments i to j meet the window; the prefix or a walk sums i to
        # j - 1 at whole width, then both ends are clipped
        i = bisect_right(times, t0) - 1
        j = bisect_left(times, t1, i) - 1
        if prefix is not None:
            total = prefix[j] - prefix[i]
        else:
            total = 0
            for k in range(i, j):
                over = vals[k] - cap
                if over > 0:
                    total += (over if over < clamp else clamp) * (
                        times[k + 1] - times[k])
        over = vals[i] - cap
        if over > 0:
            total -= (over if over < clamp else clamp) * (t0 - times[i])
        over = vals[j] - cap
        if over > 0:
            total += (over if over < clamp else clamp) * (t1 - times[j])
        if prefix is None:
            walked = self._walked.get(key, 0) + j + 1 - i
            if walked > len(times):
                self._prefixes[key] = self._overflow_prefix(cap, clamp)
            else:
                self._walked[key] = walked
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

    def __eq__(self, other):
        if not isinstance(other, StepCurve):
            return NotImplemented
        return self.horizon == other.horizon and self.breakpoints() == other.breakpoints()

    def __repr__(self):
        return f"StepCurve(horizon={self.horizon}, breakpoints={self.breakpoints()})"


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
