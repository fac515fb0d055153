"""Bi-infinite binary sequences with eventually periodic tails.

The ambient system is the full shift on two symbols. Every point handled
here is a bi-infinite word over {0,1} that repeats a fixed block far enough
to the left and far enough to the right, so it has a finite description:

    ... L L L | core | R R R ...

with the core anchored at an integer offset. This class of points is closed
under shifting, splicing and orbit gluing, and every metric quantity on it
reduces to exact integer arithmetic (all distances are dyadic rationals).
No floating point appears anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction

HALF = Fraction(1, 2)

_BINARY = frozenset("01")


def dyadic(exp):
    """2**-exp as an exact rational, for exp >= 0."""
    return Fraction(1, 1 << exp)


def agree_radius(r, strict):
    """The least m with 2**-m < r (strict) or 2**-m <= r, for r = p/q > 0.

    A base distance, 0 or 2**-n with n the least |j| of a mismatch, is
    below (at most) r exactly when the two sequences agree on |j| < m.
    Integer arithmetic gives m: 2**m > q/p exactly when 2**m > q // p,
    and 2**m >= q/p exactly when 2**m > (q - 1) // p.
    """
    p, q = r.numerator, r.denominator
    return ((q if strict else q - 1) // p).bit_length()


def _check_word(word, name):
    if not word or set(word) - _BINARY:
        raise ValueError(f"{name} must be a nonempty word over 0/1, got {word!r}")


def _primitive(word):
    """Shortest block whose repetition generates the same periodic pattern."""
    d = (word + word).index(word, 1)
    return word[:d] if len(word) % d == 0 else word


def _rot(word, t):
    """Rotate so that _rot(w, t)[i] == w[(i + t) % len(w)]."""
    t %= len(word)
    return word[t:] + word[:t]


def _cycle(word, phase, n):
    """The n symbols of word repeated forever, read from index phase."""
    phase %= len(word)
    head = word[phase:phase + n]
    if len(head) == n:
        return head
    reps, rest = divmod(n - len(head), len(word))
    return head + word * reps + word[:rest]


class BiSeq:
    """An eventually periodic bi-infinite binary sequence.

    The symbol at index i is, for i below ``offset``, drawn from the left
    period; for i in [offset, offset + len(core)) it is an explicit core
    symbol; beyond that it cycles through the right period.

    Instances are canonicalized on construction: the periods are reduced to
    their primitive blocks, core symbols that merely continue a tail are
    absorbed into it, and a globally periodic sequence is re-anchored at
    index zero. Two instances describe the same sequence exactly when their
    canonical fields are equal, so ``==`` and ``hash`` are structural.
    Treat instances as immutable.
    """

    __slots__ = ("left", "core", "right", "offset")

    def __init__(self, left, core="", right=None, offset=0):
        if right is None:
            right = left
        _check_word(left, "left period")
        _check_word(right, "right period")
        if set(core) - _BINARY:
            raise ValueError(f"core must be a word over 0/1, got {core!r}")
        self._settle(_primitive(left), core, _primitive(right), offset)

    @classmethod
    def _trusted(cls, left, core, right, offset):
        """Build without __init__'s checks and period reductions.

        Precondition, unchecked: left and right are primitive words over
        0/1 and core is a word over 0/1. Any other input gives a
        non-canonical instance, on which ``==`` and ``hash`` are wrong.
        """
        return object.__new__(cls)._settle(left, core, right, offset)

    def _settle(self, left, core, right, offset):
        """Canonicalize primitive periods and a 0/1 core into self."""
        # Absorb core symbols that already continue the adjacent tail,
        # rotating each period once for the whole run.
        n = 0
        while n < len(core) and core[n] == left[n % len(left)]:
            n += 1
        if n:
            core, left, offset = core[n:], _rot(left, n), offset + n
        n = len(core)
        while n and core[n - 1] == right[(n - 1 - len(core)) % len(right)]:
            n -= 1
        if n < len(core):
            core, right = core[:n], _rot(right, n - len(core))
        if not core:
            if left == right:
                # Globally periodic: pin the representation at index 0.
                left = right = _rot(left, -offset)
                offset = 0
            elif left[0] == right[0]:
                # Slide the seam right as far as the two patterns agree;
                # by Fine and Wilf, distinct primitive words part within
                # len(left) + len(right) symbols.
                for n in range(1, len(left) + len(right)):
                    if left[n % len(left)] != right[n % len(right)]:
                        break
                else:  # pragma: no cover - primitivity rules this out
                    raise AssertionError("seam slide failed to terminate")
                left, right, offset = _rot(left, n), _rot(right, n), offset + n
        self.left = left
        self.core = core
        self.right = right
        self.offset = offset
        return self

    @property
    def core_end(self):
        return self.offset + len(self.core)

    def __eq__(self, other):
        if not isinstance(other, BiSeq):
            return NotImplemented
        return (self.left == other.left and self.core == other.core
                and self.right == other.right and self.offset == other.offset)

    def __hash__(self):
        return hash((self.left, self.core, self.right, self.offset))

    def __repr__(self):
        return f"BiSeq({self.left!r}, {self.core!r}, {self.right!r}, offset={self.offset})"

    def __getitem__(self, i):
        if i < self.offset:
            return self.left[(i - self.offset) % len(self.left)]
        i -= self.offset
        if i < len(self.core):
            return self.core[i]
        return self.right[(i - len(self.core)) % len(self.right)]

    def window(self, lo, hi):
        """The word of symbols at indices lo..hi-1."""
        if hi <= lo:
            return ""
        o = self.offset
        e = o + len(self.core)
        if lo >= e:
            return _cycle(self.right, lo - e, hi - lo)
        if hi <= o:
            return _cycle(self.left, lo - o, hi - lo)
        word = self.core[max(lo - o, 0):hi - o]
        if lo < o:
            word = _cycle(self.left, lo - o, o - lo) + word
        if hi > e:
            word += _cycle(self.right, 0, hi - e)
        return word

    def shift(self, t):
        """The sequence y with y[i] == self[i + t].

        The shift of a canonical description is canonical with the same
        words, except that a globally periodic one stays pinned at index 0
        and rotates its period instead, so no re-canonicalization is needed.
        """
        y = object.__new__(BiSeq)
        if self.is_periodic:
            y.left = y.right = _rot(self.left, t)
            y.core, y.offset = "", 0
        else:
            y.left, y.core, y.right = self.left, self.core, self.right
            y.offset = self.offset - t
        return y

    def reverse(self):
        """The sequence y with y[i] == self[-i]."""
        return BiSeq(self.right[::-1], self.core[::-1], self.left[::-1],
                     1 - self.core_end)

    @property
    def is_periodic(self):
        return not self.core and self.left == self.right

    def least_period(self):
        if not self.is_periodic:
            raise ValueError(f"{self!r} is not a periodic sequence")
        return len(self.left)


_PROBE = 16


def _diff_bits(xs, ys):
    """Bitmask of the positions where two equal-length 0/1 words differ.

    Bit 0 is the last symbol, bit len - 1 the first.
    """
    return int(xs, 2) ^ int(ys, 2)


def right_cap(x, y, start):
    """Exclusive end of the stretch that decides x and y from start on.

    From s0 = max(start, both core ends) on, x has period p = len(x.right)
    and y period q = len(y.right). If they agree on the p + q - gcd(p, q)
    symbols from s0, that common word has both periods, so by Fine and
    Wilf it has period gcd(p, q), and both tails then repeat the same
    gcd(p, q) symbols on the whole ray.
    """
    p, q = len(x.right), len(y.right)
    return max(start, x.core_end, y.core_end) + p + q - math.gcd(p, q)


def left_cap(x, y, start):
    """Lowest index of the stretch that decides x and y from start down:
    the mirror of right_cap, from min(start, both offsets - 1) with the
    left periods."""
    p, q = len(x.left), len(y.left)
    return min(start, x.offset - 1, y.offset - 1) - p - q + math.gcd(p, q) + 1


def first_mismatch_fwd(x, y, start=0):
    """Smallest index >= start where x and y disagree, or None.

    The scan stops at right_cap(x, y, start) instead of at lcm(p, q) of
    the right periods. It compares windows of doubling length, starting
    with a short probe, since most lookups disagree early.
    """
    hi = right_cap(x, y, start)
    step = _PROBE
    while start < hi:
        end = min(start + step, hi)
        xs, ys = x.window(start, end), y.window(start, end)
        if xs != ys:
            return end - _diff_bits(xs, ys).bit_length()
        start = end
        step *= 2
    return None


def first_mismatch_bwd(x, y, start=-1):
    """Largest index <= start where x and y disagree, or None.

    The mirror image of first_mismatch_fwd: the scan stops at
    left_cap(x, y, start).
    """
    lo = left_cap(x, y, start)
    step = _PROBE
    end = start + 1
    while end > lo:
        begin = max(end - step, lo)
        xs, ys = x.window(begin, end), y.window(begin, end)
        if xs != ys:
            bits = _diff_bits(xs, ys)
            return end - (bits & -bits).bit_length()
        end = begin
        step *= 2
    return None


def mismatch_radius(x, y):
    """The least |i| with x[i] != y[i], or None when x == y.

    One outward scan: each round compares x and y on [-r, r] and reads the
    nearest mismatch off the XOR of the two words; r starts at _PROBE and
    doubles. Past the probe the window is clipped at the Fine and Wilf
    caps right_cap(x, y, 0) and left_cap(x, y, -1), as in
    first_mismatch_fwd and _bwd. The nearest mismatch on each side lies
    inside its cap, so a mismatch at distance at most r lies in the
    clipped window, and the cost grows with the distance to the nearer
    mismatch, not the farther one.
    """
    if x == y:
        return None
    if x[0] != y[0]:
        return 0
    lo, hi, left = -_PROBE, _PROBE, None
    while True:
        xs, ys = x.window(lo, hi + 1), y.window(lo, hi + 1)
        if xs != ys:
            # bit i of the XOR stands for index hi - i; index 0 agrees
            mask = _diff_bits(xs, ys)
            ahead, behind = mask & ((1 << hi) - 1), mask >> hi
            if not behind:
                return hi + 1 - ahead.bit_length()
            back = (behind & -behind).bit_length() - 1
            return min(back, hi + 1 - ahead.bit_length()) if ahead else back
        if left is None:  # the caps cost more than most probes
            left = min(lo, left_cap(x, y, -1))
            right = max(hi, right_cap(x, y, 0) - 1)
        if lo == left and hi == right:
            return None
        lo, hi = max(2 * lo, left), min(2 * hi, right)


def nearest_mismatches(y, z, times):
    """For each of the increasing times t, the least |j - t| with y[j] != z[j].

    y and z must differ. One XOR of the two words over [lo, hi), the span
    of the times, marks the mismatches inside it: bit b stands for index
    hi - 1 - b. The bits up to b_t = hi - 1 - t hold the mismatches at or
    after t, the nearest one being the highest of them, and the bits from
    b_t on hold those at or before t, the nearest being the lowest. One
    mismatch search past each edge, bounded by Fine and Wilf, covers the
    rest of the line.
    """
    lo, hi = times[0], times[-1] + 1
    mask = _diff_bits(y.window(lo, hi), z.window(lo, hi))
    right = first_mismatch_fwd(y, z, hi)
    left = first_mismatch_bwd(y, z, lo - 1)
    out = []
    for t in times:
        b = hi - 1 - t
        gaps = []
        if right is not None:
            gaps.append(right - t)
        if left is not None:
            gaps.append(t - left)
        after = mask & ((2 << b) - 1)
        if after:
            gaps.append(b + 1 - after.bit_length())
        before = mask >> b
        if before:
            gaps.append((before & -before).bit_length() - 1)
        out.append(min(gaps))
    return out


def base_dist(x, y):
    """Shift metric: 2**-m with m = mismatch_radius(x, y), 0 when x == y.

    The scan stops at the nearest mismatch, so the cost grows with m and
    the descriptions, not with the distance to the farther mismatch.
    """
    m = mismatch_radius(x, y)
    return Fraction(0) if m is None else dyadic(m)


def right_tails_agree(x, y):
    """True when x[i] == y[i] for all large enough i.

    For tail-periodic sequences this is equivalent to exact agreement from
    the last core boundary on, which the symbols up to right_cap decide.
    """
    return first_mismatch_fwd(x, y, max(x.core_end, y.core_end)) is None


def left_tails_agree(x, y):
    """True when x[i] == y[i] for all sufficiently negative i."""
    return first_mismatch_bwd(x, y, min(x.offset, y.offset) - 1) is None


def periodic_point(k):
    """The tagged periodic point of level k: the k zeroes, one 1 pattern.

    Its least period is k + 1, and distinct levels give distinct orbits
    because each period carries exactly one 1, which also makes the word
    primitive.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    word = "0" * k + "1"
    return BiSeq._trusted(word, "", word, 0)


def periodic_orbit(k):
    """All shift images of periodic_point(k), in orbit order."""
    p = periodic_point(k)
    return [p.shift(j) for j in range(k + 1)]


def assemble(left_src, lo, word, hi, right_src, right_anchor):
    """Splice three descriptions into one sequence.

    The result equals ``left_src`` below lo, spells ``word`` on [lo, hi),
    and equals ``right_src[i - right_anchor]`` from hi upward.  The caller
    is responsible for making the pieces consistent at the boundaries if
    that matters; no check is done here. The periods are rotations of the
    sources' primitive periods, so only ``word`` is checked.
    """
    if len(word) != hi - lo:
        raise ValueError("word length does not match its window")
    if set(word) - _BINARY:
        raise ValueError(f"word must be a word over 0/1, got {word!r}")
    start = min(lo, left_src.offset)
    end = max(hi, right_src.core_end + right_anchor)
    core = (left_src.window(start, lo) + word
            + right_src.window(hi - right_anchor, end - right_anchor))
    p = len(left_src.left)
    left = left_src.window(start - p, start)
    q = len(right_src.right)
    right = right_src.window(end - right_anchor, end - right_anchor + q)
    return BiSeq._trusted(left, core, right, start)


def flip_symbol(x, pos):
    """Copy of x with the symbol at pos inverted."""
    flipped = "1" if x[pos] == "0" else "0"
    return assemble(x, pos, flipped, pos + 1, x, 0)


def base_shadow(po, delta_exp):
    """Trace a finite pseudo-orbit of the shift by a true orbit.

    ``po`` lists points whose one-step jumps are below 2**-delta_exp, i.e.
    base_dist(po[t].shift(1), po[t+1]) < 2**-delta_exp for consecutive
    entries. That bound is checked on the window it fixes: a distance is
    below 2**-e exactly when the two sequences agree on [-e, e], so
    po[t] on [1 - e, e + 1] must spell po[t+1] on [-e, e]; the exact gap
    is computed only for the error message. The traced point reads off
    each entry's symbol at index 0 and extends the ends by the first
    entry's left tail and the last entry's right tail, which keeps it
    inside this module's point class. Agreement between neighbours
    propagates across the jump windows, so the returned point y satisfies
    base_dist(y.shift(t), po[t]) <= 2**-delta_exp at every index;
    shadowing.shadow_pseudo_orbit checks that bound on its window too.
    """
    if delta_exp < 1:
        raise ValueError("delta_exp must be >= 1")
    if not po:
        raise ValueError("pseudo-orbit is empty")
    e = delta_exp
    words = [p.window(-e, e + 2) for p in po]
    for t in range(len(po) - 1):
        if words[t][1:] != words[t + 1][:-1]:
            gap = base_dist(po[t].shift(1), po[t + 1])
            raise ValueError(
                f"gap {gap} at index {t} is not below 2**-{delta_exp}")
    word = "".join(w[e] for w in words)
    return assemble(po[0], 0, word, len(po), po[-1], len(po) - 1)


def glue_specification(segments, spacing):
    """Glue spaced orbit segments into one point of the shift.

    Each entry of ``segments`` is ((a, b), seq) and prescribes the orbit of
    ``seq`` on the time interval [a, b]: at time t the target is
    seq.shift(t - a). Intervals must be listed in increasing order with
    gaps of at least ``spacing``. The glued point copies each segment's
    coordinates on its interval widened by (spacing - 1) // 2 on both
    sides; everything else is filled with zeroes. At any time t inside an
    interval the glued point then agrees with the prescribed orbit on a
    window of radius (spacing - 1) // 2, which bounds the tracking error
    by 2**-((spacing - 1) // 2).
    """
    if spacing < 1:
        raise ValueError("spacing must be >= 1")
    if not segments:
        raise ValueError("no segments to glue")
    prev_end = None
    for (a, b), _ in segments:
        if a > b:
            raise ValueError(f"interval ({a}, {b}) is empty")
        if prev_end is not None and a < prev_end + spacing:
            raise ValueError(
                f"interval starting at {a} is closer than {spacing} to its predecessor")
        prev_end = b
    h = (spacing - 1) // 2
    lo = segments[0][0][0] - h
    hi = segments[-1][0][1] + h + 1
    buf = ["0"] * (hi - lo)
    for (a, b), seq in segments:
        buf[a - h - lo:b + h + 1 - lo] = seq.window(-h, b - a + h + 1)
    return BiSeq("0", "".join(buf), "0", lo)
