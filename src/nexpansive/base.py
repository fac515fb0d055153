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
        # reversed primitive words are primitive; _settle re-canonicalizes
        return BiSeq._trusted(self.right[::-1], self.core[::-1],
                              self.left[::-1], 1 - self.core_end)

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
    """Smallest index >= start where x and y disagree, or None: one lies in
    [start, right_cap(x, y, start)) if any does. The package calls neither
    this nor first_mismatch_bwd; perfbench traces both by name."""
    j = nearest_mismatch(x, y, start, right_cap(x, y, start))
    return j if j is not None and j >= start else None


def first_mismatch_bwd(x, y, start=-1):
    """Largest index <= start where x and y disagree, or None: the
    reversed pair's first mismatch from -start on, negated."""
    j = first_mismatch_fwd(x.reverse(), y.reverse(), -start)
    return None if j is None else -j


def mismatch_radius(x, y):
    """The least |i| with x[i] != y[i], or None when x == y.

    The nearest mismatch to index 0, read by nearest_mismatch's outward
    scan (which returns None at once when x == y), so the cost grows with
    the distance to the nearer mismatch, not the farther one. Pairs that
    differ at index 0 return before the scan.
    """
    if x[0] != y[0]:
        return 0
    m = nearest_mismatch(x, y, 0, 0)
    return m if m is None else abs(m)


def nearest_mismatch(x, y, lo, hi):
    """The index of the mismatch of x and y nearest to [lo, hi], or None
    when x == y.

    A mismatch inside [lo, hi] is nearest, and the first one inside is
    returned; otherwise the nearer of the last one below lo and the first
    one above hi, the one below on a tie. One outward scan: each round
    compares x and y on [lo - r, hi + r] and reads the mismatches off the
    XOR of the two words, r starting at _PROBE and doubling, each side
    clipped at its Fine and Wilf cap, left_cap(x, y, lo - 1) and
    right_cap(x, y, hi + 1). The nearest mismatch on each side lies inside
    its cap, so one at distance at most r lies in the clipped window and
    is nearest. This is the package's one outward mismatch scan.
    """
    if x == y:
        return None
    r, left = _PROBE, None
    a, b = lo - r, hi + r
    while True:
        xs, ys = x.window(a, b + 1), y.window(a, b + 1)
        if xs != ys:
            # bit i of the XOR stands for index b - i, so the bits below
            # split stand for [lo, b]; j is the first mismatch there, b + 1
            # when there is none
            mask, split = _diff_bits(xs, ys), b - lo + 1
            j = b + 1 - (mask & ((1 << split) - 1)).bit_length()
            if j <= hi:
                return j
            behind = mask >> split
            if not behind:
                return j
            below = lo - (behind & -behind).bit_length()
            return below if j > b or lo - below <= j - hi else j
        if left is None:  # the caps cost more than most probes
            left = min(a, left_cap(x, y, lo - 1))
            right = max(b, right_cap(x, y, hi + 1) - 1)
        if a == left and b == right:
            return None
        r *= 2
        a, b = max(lo - r, left), min(hi + r, right)


def base_dist(x, y):
    """Shift metric: 2**-m with m = mismatch_radius(x, y), 0 when x == y.

    The scan stops at the nearest mismatch, so the cost grows with m and
    the descriptions, not with the distance to the farther mismatch.
    """
    m = mismatch_radius(x, y)
    return Fraction(0) if m is None else dyadic(m)


def agree_from(x, y, start):
    """True when x[i] == y[i] for every i >= start. Canonical right periods
    are primitive, hence least: rays with periods of unequal lengths never
    agree, and rays with one period p agree from s0 = max(start, both core
    ends) on exactly when they agree on the p symbols from s0."""
    p = len(x.right)
    if p != len(y.right):
        return False
    hi = max(start, x.core_end, y.core_end) + p
    return x.window(start, hi) == y.window(start, hi)


def right_tails_agree(x, y):
    """True when x[i] == y[i] for all large enough i: agreement from the
    last core boundary on (agree_from)."""
    return agree_from(x, y, max(x.core_end, y.core_end))


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


def base_shadow(runs, delta_exp):
    """Trace a finite pseudo-orbit of the shift, given by its runs, by a
    true orbit.

    ``runs`` lists (first, last, z) for consecutive stretches of times,
    each followed by the last and the next: at every time t of a run the
    pseudo-orbit is at z.shift(t), so inside a run every jump is zero.
    Only the jump across each run break must stay below 2**-delta_exp,
    and that bound is checked on the window it fixes: a distance is below
    2**-e exactly when the two sequences agree on [-e, e], so at a break
    after time t the carriers z and z' must agree on [t + 1 - e, t + 1 +
    e]; the exact gap is computed only for the error message, which counts
    the index from the first time. The traced point, at time 0, spells
    each run's z on [first, last] in one slice and extends the ends by the
    first run's left tail and the last run's right tail, which keeps it
    inside this module's point class. Agreement between neighbours
    propagates across the jump windows, so the returned point y satisfies
    base_dist(y.shift(t), z.shift(t)) <= 2**-delta_exp at every time t;
    shadowing.shadow_pseudo_orbit checks that bound on its window too.
    """
    if delta_exp < 1:
        raise ValueError("delta_exp must be >= 1")
    if not runs:
        raise ValueError("pseudo-orbit is empty")
    e = delta_exp
    start = runs[0][0]
    for (_, t, z), (_, _, nxt) in zip(runs, runs[1:]):
        if z.window(t + 1 - e, t + 2 + e) != nxt.window(t + 1 - e, t + 2 + e):
            gap = base_dist(z.shift(t + 1), nxt.shift(t + 1))
            raise ValueError(
                f"gap {gap} at index {t - start} is not below 2**-{delta_exp}")
    word = "".join(z.window(first, last + 1) for first, last, z in runs)
    end = runs[-1][1] + 1
    return assemble(runs[0][2], start, word, end, runs[-1][2], 0)


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
