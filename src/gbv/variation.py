"""Variation functionals of sampled functions.

All functionals share one search problem: pick nonoverlapping grid
intervals and sum per-interval gains. When the gain of an interval depends
only on its own increment -- the modulus of variation, the unweighted
q-form and any rank-free Schramm family (every phi_j the same function:
constant weights, an explicit weight list of one value, or explicit terms
that are one repeated pair) -- one dynamic program over (grid position,
intervals left) is exact. It records an end pointer per cell in the same
pass, so the witness is read off the pointers and re-evaluated against the
value; when the count cap cannot bind, it runs on a single column. Such
uncapped problems that differ only in gain and minimum length -- the
levels of a gauged variation with rank-free weights -- share one backward
pass, each on its own column, so a gauge of n levels costs O(m) numpy
calls, not O(n·m). A gauge solves only one level per exponent: levels
that share an exponent are nested, and the one with the shortest
``min_len`` holds their supremum, so a constant ladder is one column
with ``min_len`` 1. A block of rows as tall as the table's shortest
``min_len`` shares one ``argmax``, since their takes read only rows below
the block, so a table whose levels all need long intervals costs
O(m / min_len) calls. A table whose levels all have ``min_len`` 1, on
samples with no two equal neighbours (every skeleton table of a
non-constant input), masks no zero increment: the first end of a row has
a nonzero one, whose candidate is at least any zero increment's, so a row
is one sum and one ``argmax``, and an uncapped row is its take. The tables
are column-major, so each ``argmax`` runs down contiguous ends. A walk
jumps from one pointer to the next, one step per interval. The linear gain
under a count cap a caller asked for (the modulus, and the unweighted form
at q = 1 with a binding ``s_max``) is filled a column at a time instead:
suffix maxima of v_b + best[b, k-1] and best[b, k-1] - v_b give every
take of a column in a few vector ops, so a table of K columns costs O(K)
numpy calls of size m, not O(m) of size m·K, and the witness is rebuilt
along the one column walked from the takes kept per column. The uncapped
linear gain, which would need every column, and ``_rank_bounds``' table,
whose every column is walked, stay on the block rule.
``_rank_bounds`` fills one table per level, of the family's rank-free
surrogate gain, and reads both bounds from it: the lower from its
witnesses, the upper by summation by parts for a scaled family and by the
nu rule for an explicit one. When gains are rank-dependent -- the j-th
largest increment is charged phi_j -- no polynomial exact scheme is known,
so up to ``oracle_cap`` grid cells of the input a forward label search
(:func:`_label_search`) is exact, and certified lower/upper bounds take
over beyond it. The search keeps, at each grid point, the collections
that no other one dominates rank by rank, which needs only nondecreasing
phi_j >= 0.

Every solve -- the exact DP, the label search and the bounds -- of a
level whose ``min_len`` is at most the skeleton's gap runs on the
turning-point skeleton of f, its local extrema (:func:`_skeleton`), with
min_len 1 there, and the witness is mapped back to the input grid: one
period of a rounded sine of 4,097 samples keeps 4 points. The gap is the
fewest grid cells between two consecutive skeleton points
(:class:`_Skeleton`), so every skeleton interval is admissible; at
``min_len = gap + 1`` the skeleton may lose the optimum, and the level
stays on the input grid. ``min_len == 1`` always fits. The skeleton
needs each phi_j convex with phi_j(0) = 0 and phi_1 >= phi_2 >= ... on
the increments of f, which every gain of the exact DP meets (all phi_j
are one convex g), and a count cap does not disturb it. On the skeleton
the upper bound charges at most one rank per skeleton cell, so it can
only be tighter than on the full grid. An explicit family with rising
exponents is ordered only up to ``family.ordered_to``; an input whose
range passes it gets bounds that charge every rank of the input grid.

The Waterman-Shiba variation is the p-th root of the Schramm variation of
phi_j(x) = x^p / lam_j, and each gauged level is that family at q_n, so one
rank objective serves all three.
"""

from __future__ import annotations

import bisect
import logging
import math
import operator
import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .sequences import (GaugePair, SchrammFamily, WeightSequence, check_horizon, check_q,
                        check_real, check_whole)
from .stepfn import IntervalCollection, StepFunction

#: largest grid resolution at which rank-dependent search runs exactly
ORACLE_CAP_DEFAULT = 16

_REL_TOL = 1e-12

#: the bit pattern of inf, above those of the positive floats
_INF_BITS = 0x7FF0_0000_0000_0000

_log = logging.getLogger("gbv")


@dataclass(frozen=True)
class VariationResult:
    """The answer ``lower <= V <= upper``, closed (``lower == upper``) in an
    ``exact-*`` mode. The witness re-evaluates to ``lower``; a gauge names
    the ``level`` it attains."""

    mode: str  # exact-oracle | exact-dp | bounds
    lower: float
    upper: float
    witness: IntervalCollection
    level: int | None = None

    def to_json_dict(self):
        return {
            # the benchmark's gate still reads the lower end as "value"
            "value": self.lower,
            "mode": self.mode,
            "lower": self.lower,
            "upper": self.upper,
            "level": self.level,
            "witness": self.witness.to_json_dict(),
        }


def _exact(value, witness):
    return VariationResult(mode="exact-dp", lower=value, upper=value, witness=witness)


# ---------------------------------------------------------------------------
# rank-independent dynamic program

def _linear(x):
    """The gain of the modulus of variation: the increment itself. Passing
    this function (not an equal lambda) selects :func:`_dp`'s column rule."""
    return x


def _suffix_max(x):
    """``out[j] = max(x[j:])``."""
    return np.maximum.accumulate(x[::-1])[::-1]


#: floats of increments per chunk of start positions, at 16 starts or more:
#: a chunk of starts shares one call of each gain function, and its
#: increments and each gain array (64 kB each up to m = 512) stay below the
#: 128 kB at which glibc's malloc maps fresh pages
_GAIN_CHUNK = 1 << 13


def _dp(values, levels, count=None):
    """The interval DP: ``best[i, c]`` is the largest sum of
    ``gainfn(|f(t_b) - f(t_a)|)`` over nonoverlapping intervals inside
    [i, m], each of grid length >= ``min_len``, where ``levels`` is a list
    of ``(gainfn, min_len)`` pairs. Returns the table and ``walk(col)``,
    the witness pairs of ``best[0, col]``.

    With a ``count`` cap there is one level, column k counts at most k
    intervals and reads column k - 1, and column 0 is zero. Pass
    ``count=None`` when the cap cannot bind (at most ``m // min_len``
    intervals fit): column c is then level c's own, and reads itself. A
    one-level uncapped table equals the last column of the capped table
    bit for bit, and each column of a several-level table equals its
    level's one-level table bit for bit, so a gauge solves all its levels
    in one pass.

    Two rules fill the table. Tie rule of both: take the interval
    when taking ties skipping, pick the smallest end among equal takes, and
    never take a zero increment. A gain past the largest float is inf.

    Per block of positions (the block rule, any gains): one ``argmax``
    over the ends, vectorized over the columns, records ``end[i, c]``,
    where the interval starting at i ends in an optimal collection (0 to
    skip i), in the same backward pass. Let ``first`` be the smallest
    ``min_len`` of the table. Every end of a start i lies at or past
    i + first, so the takes of up to ``first`` consecutive starts read
    only rows below them: one candidate sum and one ``argmax`` serve a
    block of ``first`` rows, and each row's value is then
    ``max(take, best[i + 1])``, suffix maxima up the block.
    ``max`` is exact, so the table is the row-at-a-time table bit for bit.
    A block records the argmax of each of its rows as its end and a
    ``took`` mask of the rows whose take reaches skipping; the ends not
    taken are zeroed once, after the pass. O(m / first) numpy calls of size
    first·m·K, where K is the number of columns. A table with
    ``first == 1`` (every rank-bound table, and the q-form without
    ``min_len``) keeps two-dimensional rows, which cost less per row than
    a block of one. ``best`` and ``end`` are column-major and a chunk's
    gains are held as (starts, columns, ends), so a block's candidates
    ``g[r0:r1, :, r0:].transpose(0, 2, 1) + best[lo:, :n]`` run down
    contiguous ends, which ``argmax(axis=1)`` reduces; a block's lower
    rows mask the ends that lie before their own first end. Each distinct
    gain function is called once per chunk of start positions (its own
    function, with numpy's scalar ``**`` fast paths), not once per
    position: a chunk holds 16 starts, or up to a block or an eighth of
    the ends while its increments fit in ``_GAIN_CHUNK`` floats, rounded
    up to whole blocks (:func:`_chunk_rows`, which also caps the block at
    the chunk), so each gain is called at most m / 16 + 1 times (8 at
    m = 256). Zero increments, and ends too short for a level, are masked
    after the sum, one ``np.copyto`` per block, so an inf gain never meets
    their -inf. The mask cannot move into the gains, once per chunk: a
    -inf gain would meet an inf ``best[b]`` in a row whose skip is inf
    already, and the nan would move the witnesses of inf values and break
    the equality of a column with its one-level table.

    Mask-free rows. A table whose levels all have ``min_len`` 1, on samples
    no two neighbours of which are equal -- every table on the skeleton of
    a non-constant input: the exact DP's levels there and every
    ``_rank_bounds`` table -- skips the mask and its per-chunk arrays. End
    i + 1, the first end of row i, has a nonzero increment, and every gain
    g of the engine has g >= 0 and g(0) = 0, so its candidate
    g(|v_{i+1} - v_i|) + best[i + 1, c'] is at least best[b, c'], the
    unmasked candidate of any zero-increment end b: best does not increase
    down a column, and float addition is monotone. So ``argmax``, which
    picks the first of equal candidates, never lands on a zero increment,
    and the take is the masked take bit for bit. Uncapped, the take is at
    least best[i + 1, c] = skip in every row, so such a table writes
    ``best[i] = take`` and keeps ``took`` true; with one column it reads
    its take as a scalar: a 1-D sum, one ``argmax`` and two scalar stores.
    Samples with equal neighbours (grid plateaus, the two-point skeleton of
    a constant input) keep the mask.

    Per column (the linear gain :func:`_linear` with a count cap): as
    |v_b - v_i| = max(v_b - v_i, v_i - v_b), the take at i is
    ``max(U[i + min_len] - v_i, D[i + min_len] + v_i)`` with the suffix maxima
    ``U[j] = max_{b >= j} (v_b + best[b, k-1])`` and
    ``D[j] = max_{b >= j} (best[b, k-1] - v_b)``, and column k is the suffix
    maximum of the takes: eight vector ops of length m a column, O(K) numpy
    calls in all. A zero increment may enter U or D, but its take never
    exceeds skipping, so the table is the same, bit for bit when every sum
    is exact (dyadic samples); otherwise values may differ by a few ulps,
    and witnesses in linear ties. The samples are centred on
    their midrange first, which keeps large offsets exact (Sterbenz). No
    pointers are stored: the fill keeps each column's v_b + best[b, k-1],
    best[b, k-1] - v_b and takes, 3 × K × (m + 1) floats, and ``walk``
    reads those of the columns it visits, and of the positions where the
    take reaches skipping picks the first whose take over nonzero
    increments still does, which is the block rule's choice. It masks the
    zero increments of a start only when the unmasked ``argmax`` lands on
    one: otherwise that end is the first of the largest candidates over
    nonzero increments too. At ``min_len`` 1 on the skeleton, end a + 1
    has a nonzero increment, whose candidate is the largest of a zero
    increment's up to rounding (the argument of the mask-free rows), so a
    walk there seldom masks or tries a second start.

    The column rule serves every capped linear table. The uncapped linear
    gain stays on the block rule, where the column rule would need every
    column (2.1 against 4.8 ms at m = 256, ``min_len`` 1), and so do
    tables whose every column is walked, such as ``_rank_bounds``': a
    pointer walk takes one step per interval, where the column rule's walk
    scans the takes of every column it visits.
    """
    m = len(values) - 1
    fns, lens = zip(*levels)
    if count is None:
        width, shift = len(levels), 0
    else:
        (min_len,) = lens
        width, shift = max(0, min(count, m // min_len)) + 1, 1
    n = width - shift  # columns filled, reading columns 0..n-1
    best = np.zeros((m + 2, width), order="F")
    if _by_columns(levels, count):
        return _linear_columns(values, min_len, best)
    end = np.zeros((m + 2, width), dtype=np.intp, order="F")
    walk = _walk(best, end, shift)
    first = min(lens)  # every end of a start i lies in i + first..m
    if n == 0 or first > m:
        return best, walk
    # end i + 1 beats every zero increment when it has none of its own
    free = max(lens) == 1 and bool(np.all(values[1:] != values[:-1]))
    direct = free and count is None  # and its take reaches skipping
    took = np.full((m + 2, width), direct, order="F")
    gains = list(dict.fromkeys(fns))  # one call per distinct function
    uses = [[c for c, fn in enumerate(fns) if fn is gain] for gain in gains]
    ends = m + 1 - first
    rows, block = _chunk_rows(m, first)
    g = np.empty((rows, len(fns), ends))
    # ends a start cannot take: end j of row r lies j - r past the row's
    # first end (before it, for a block's lower rows), and level c starts
    # late[c] ends later
    late = np.array(lens) - first
    short = None  # one row mask serves every column
    if late.any() or block > 1:
        short = np.arange(ends) - np.arange(rows)[:, None, None] < late[:, None]
    cols = np.arange(n)
    below = np.arange(block)[:, None]  # the rows of a block
    with np.errstate(over="ignore"):
        for hi in range(m - first, -1, -rows):
            lo0 = max(hi - rows + 1, 0)  # starts lo0..hi; row r is start lo0 + r
            # column j is end lo0 + first + j, so row r's ends are columns r..
            incs = values[lo0 + first:] - values[lo0:hi + 1, None]
            incs = np.abs(incs, out=incs)
            k, w = incs.shape
            for gain, cs in zip(gains, uses):
                gk = gain(incs)
                for c in cs:
                    g[:k, c, :w] = gk
            bad = None if free else (incs == 0)[:, None]
            if short is not None:
                bad = bad | short[:k, :, :w]
            if direct and n == 1:
                for r in range(k - 1, -1, -1):
                    i, lo = lo0 + r, lo0 + r + 1
                    cand = g[r, 0, r:w] + best[lo:m + 1, 0]
                    a = cand.argmax()
                    best[i, 0], end[i, 0] = cand[a], a + lo
            elif block == 1:
                for r in range(k - 1, -1, -1):
                    i, lo = lo0 + r, lo0 + r + first
                    # ends down each column, contiguous in the column-major best
                    cand = g[r, :, r:w].T + best[lo:m + 1, :n]
                    if not free:
                        np.copyto(cand, -np.inf, where=bad[r, :, r:].T)
                    arg = cand.argmax(axis=0)
                    if direct:
                        best[i] = cand[arg, cols]
                    else:
                        take, skip = cand[arg, cols], best[i + 1, shift:]
                        np.maximum(take, skip, out=best[i, shift:])
                        np.greater_equal(take, skip, out=took[i, shift:])
                    np.add(arg, lo, out=end[i, shift:])
            else:
                for r1 in range(k, 0, -block):
                    # rows r0..r1 - 1 take ends at or past start r1's, whose
                    # rows are filled: one sum and one argmax serve them all
                    r0 = max(r1 - block, 0)
                    i0, i1, lo = lo0 + r0, lo0 + r1, lo0 + r0 + first
                    cand = g[r0:r1, :, r0:w].transpose(0, 2, 1) + best[lo:m + 1, :n]
                    np.copyto(cand, -np.inf, where=bad[r0:r1, :, r0:].transpose(0, 2, 1))
                    arg = cand.argmax(axis=1)
                    take = cand[below[:r1 - r0], arg, cols]
                    # best[i] = max(take[i], best[i + 1]): suffix maxima up the block
                    up = np.maximum.accumulate(
                        np.concatenate((best[i1:i1 + 1, shift:], take[::-1])), axis=0)
                    best[i0:i1, shift:] = up[:0:-1]
                    took[i0:i1, shift:] = take >= best[i0 + 1:i1 + 1, shift:]
                    end[i0:i1, shift:] = arg + lo
            del incs, gk, bad  # one chunk's arrays live at a time
    np.copyto(end, 0, where=~took)
    return best, walk


def _chunk_rows(m, first):
    """(rows, block): the starts per chunk of :func:`_dp`'s gains on m + 1
    samples whose shortest ``min_len`` is ``first``, and the rows it fills
    per ``argmax``. A chunk holds 16 starts, or up to a block or an eighth
    of the ends while ``_GAIN_CHUNK`` holds their increments, rounded up to
    whole blocks of up to ``first`` rows."""
    ends = m + 1 - first
    rows = max(16, min(max(first, ends // 8), _GAIN_CHUNK // ends))
    block = min(first, rows)
    return rows + -rows % block, block


def _by_columns(levels, count):
    """Whether :func:`_dp` fills the table of ``levels`` by its column rule:
    the linear gain under a count cap."""
    return count is not None and levels[0][0] is _linear


def _linear_columns(values, min_len, best):
    """:func:`_dp`'s column rule: fills the capped ``best`` of the linear
    gain and returns it with its lazy ``walk``."""
    m, width = len(values) - 1, best.shape[1]
    # half each end first: their sum may overflow
    v = values - (values.max() / 2 + values.min() / 2)
    starts = m + 1 - min_len  # intervals start at 0..m - min_len
    # per column: v_b + best[b, col - 1], best[b, col - 1] - v_b and the
    # takes, which walk reads again
    parts = [None]
    with np.errstate(over="ignore"):
        for k in range(1, width):
            prev = best[:m + 1, k - 1]
            up, down = v + prev, prev - v
            take = np.maximum(_suffix_max(up)[min_len:] - v[:starts],
                              _suffix_max(down)[min_len:] + v[:starts])
            best[:starts, k] = _suffix_max(take)
            parts.append((up, down, take))

    def walk(col):
        pairs, i = [], 0
        with np.errstate(over="ignore"):
            while best[i, col] > 0:
                up, down, take = parts[col]
                for a in np.flatnonzero(take[i:] >= best[i + 1:starts + 1, col]) + i:
                    lo = a + min_len
                    cand = np.maximum(up[lo:] - v[a], down[lo:] + v[a])
                    b = int(cand.argmax())
                    if v[lo + b] == v[a]:  # a zero increment: mask them all
                        cand[v[lo:] == v[a]] = -np.inf
                        b = int(cand.argmax())
                    if cand[b] >= best[a + 1, col]:
                        break
                else:
                    raise InternalConsistencyError(
                        f"no interval realizes best[{i}, {col}] = {best[i, col]!r}")
                pairs.append((int(a), b + lo))
                i, col = b + lo, col - 1
        return pairs

    return best, walk


def _walk(best, end, shift):
    """``walk(col)``: the witness pairs of ``best[0, col]``, read off the end
    pointers. Each interval spends one column of a capped table (``shift``
    1), down to the zero column 0; an uncapped level's column keeps reading
    itself (``shift`` 0).

    The first walk of a table lists, once, ``nxt[i][c]``, the first start
    j >= i with ``end[j, c] > 0``, the end pointers, and the length of each
    column's positive prefix (best is nonincreasing in i). A walk then
    jumps from one interval to the next: one step per interval, not one per
    grid position. Between two intervals the table only skips, so best
    stays positive up to the next start. Python lists read faster than
    numpy scalars or memoryviews, at the cost of an int object per cell
    past 256 grid points."""
    jumps = []

    def walk(col):
        if not jumps:
            rows = np.arange(len(end))[:, None]
            starts = np.where(end > 0, rows, len(end))
            nxt = np.minimum.accumulate(starts[::-1])[::-1]
            jumps.extend((nxt.tolist(), end.tolist(), (best > 0).sum(axis=0).tolist()))
        nxt, ends, live = jumps
        pairs, i = [], 0
        while i < live[col]:
            a = nxt[i][col]
            i = ends[a][col]
            pairs.append((a, i))
            col -= shift
        return pairs

    return walk


def _dp_solve(f, levels, count=None):
    """The interval DP's (value, witness) of each level -- the last column of
    a capped table, or each uncapped level's own column -- in level order,
    and the last table filled (a capped solve's one table).

    A level runs on the turning-point skeleton of f, with min_len 1 there,
    when its ``min_len`` is at most the skeleton's gap, the fewest grid
    cells between two consecutive skeleton points (:class:`_Skeleton`);
    its witness pairs are mapped back to f's grid. Every gain that reaches
    the DP -- ``_linear``, x^q with q >= 1, a power or expm1 base over
    constant weights, c x^e with e >= 1 -- is convex with g(0) = 0, so
    some optimum of at most ``count`` admissible intervals has all its
    endpoints on the skeleton, where every interval spans a gap or more
    and is admissible (the proof is in :func:`_rank_solve`). The table
    then has a row per skeleton point and at most a column per skeleton
    cell. The levels that fit run on one skeleton table and the rest on
    one grid table, so a solve fills at most two tables. When the gap is
    1, only the ``min_len == 1`` levels fit, and moving them would leave
    the grid table blocks of 2 rows, which save about what a second pass
    costs: gauged ``linear`` and ``to`` ladders over constant weights, on
    random walks of gap 1, ran 1.05 to 1.25 times slower split at m = 16
    and 64, and 1.02 to 1.08 times faster at m = 256 and 1,024, with the
    mask-free skeleton rows. A solve that does not fit whole then keeps all
    its levels on one grid table. This follows from the rule and is not a
    tunable threshold. Only a gauge whose exponents are distinct (a
    ``linear`` or ``to`` ladder) meets it: a gauge solves one level per
    exponent, the one with the shortest ``min_len``, so a constant ladder
    passes one ``min_len == 1`` level, which fits any gap.

    Values and witnesses are those of the full grid but for ties: a linear
    gain ties a monotone run with its pieces, and the skeleton reports the
    run whole; an inf value, or a gain below the last bit of the value,
    ties more collections still. Every witness is re-evaluated and must
    reproduce its value (an inf value, inf). Each table writes one ``gbv``
    debug line that says where it ran and why, e.g. ``exact-dp: m=256,
    levels=1, cap=8, skeleton 257→4 (gap 44)`` or ``exact-dp: m=256,
    levels=2, min_len=64..128, no skeleton (gap 44), blocks of 42``, where
    ``cap`` is the count asked for, clipped to the intervals that fit, and
    ``blocks`` the rows that :func:`_dp` fills per ``argmax``: the shortest
    ``min_len``, cut to a chunk of gains (:func:`_chunk_rows`)."""
    skeleton = _Skeleton(f.values)
    fit = [skeleton.grid(min_len) is not None for _, min_len in levels]
    if not all(fit) and skeleton.gap == 1:
        fit = [False] * len(levels)
    solved = [None] * len(levels)
    for idx in (skeleton.idx, None):
        group = [c for c, on in enumerate(fit) if on == (idx is not None)]
        if not group:
            continue
        table = [(levels[c][0], 1 if idx is not None else levels[c][1]) for c in group]
        best, walk = _dp(f.values if idx is None else f.values[idx], table, count)
        cols = range(len(group)) if count is None else [best.shape[1] - 1]
        for c, col in zip(group, cols):
            value = float(best[0, col])
            witness = _on_grid(f, idx, walk(col))
            with np.errstate(over="ignore"):
                check = float(np.sum(levels[c][0](np.array(witness.increments))))
            if check != value and not abs(check - value) <= _REL_TOL * value < math.inf:
                raise InternalConsistencyError(
                    f"DP witness re-evaluates to {check!r}, not {value!r}")
            solved[c] = (value, witness)
        if _log.isEnabledFor(logging.DEBUG):
            cap = "" if count is None else f"cap={min(count, f.m // levels[0][1])}, "
            lens = [levels[c][1] for c in group]
            text = skeleton.text(idx, lens)
            if idx is None and 1 < min(lens) <= f.m and not _by_columns(table, count):
                text += f", blocks of {_chunk_rows(f.m, min(lens))[1]}"
            _log.debug("exact-dp: m=%d, levels=%d, %s%s", f.m, len(group), cap, text)
    return solved, best


def _on_grid(f, idx, pairs):
    """The collection of f of the ``pairs`` of the grid indices ``idx``
    (None: f's own grid)."""
    if idx is not None:
        pairs = [(idx[a], idx[b]) for a, b in pairs]
    return IntervalCollection.from_pairs(f, pairs)


class _Skeleton:
    """The turning-point skeleton of ``values`` (:func:`_skeleton`), ``idx``,
    and its ``gap``, the fewest grid cells between two consecutive points.
    The gap rule: a level whose intervals must span ``min_len`` grid cells
    or more may run on the skeleton, with min_len 1 there, when
    ``min_len <= gap`` (the proof is in :func:`_rank_solve`). At
    ``min_len = gap + 1`` the skeleton may lose the optimum."""

    def __init__(self, values):
        self.idx = _skeleton(values)
        self.size = len(values)

    @cached_property
    def gap(self):
        return int((self.idx[1:] - self.idx[:-1]).min())

    def grid(self, min_len):
        """The grid a level of ``min_len`` runs on: ``idx``, or None for
        the input grid."""
        return self.idx if min_len == 1 or min_len <= self.gap else None

    def text(self, idx, min_lens):
        """How a debug line names the grid ``idx`` that a solve of
        ``min_lens`` ran on, with the gap that decided it."""
        if idx is not None:
            return f"skeleton {self.size}→{len(idx)} (gap {self.gap})"
        lo, hi = min(min_lens), max(min_lens)
        return f"min_len={lo}{'' if lo == hi else f'..{hi}'}, no skeleton (gap {self.gap})"


# ---------------------------------------------------------------------------
# rank-dependent objective: ``family.rank_sum`` of a Schramm family, the
# j-th largest increment charged phi_j

def _label_search(values, family, min_len=1):
    """Exact maximum of the rank objective over nonoverlapping collections:
    (value, witness pairs, most labels held at one point) on the grid of
    ``values``.

    A label at point b is a collection inside [0, b]: its increments in
    descending order, its ``rank_sum`` and its pairs. The labels of b are
    those of b - 1, then, for a ascending, each label of a <= b - min_len
    extended by (a, b) when the increment is positive. After a stable sort
    by value, a label B is dropped when a kept label A has |A| >= |B| and
    A's i-th largest increment is >= B's for every i <= |B|: for any
    completion C, the j-th largest of A + C is then >= that of B + C, so
    A + C is worth at least B + C whenever every phi_j is nondecreasing and
    nonnegative. No ordering of the family and no convexity is needed.

    A label that dominates another is worth at least as much, so the sort
    puts it first and only kept labels need testing -- unless both are
    worth inf. Labels of value inf are therefore sorted by their
    descending increments, largest first: that order extends dominance
    (A dominates B, so A >= B as tuples), and without it the dominated
    labels of gains past the largest float pile up (648 labels at m = 10
    on a zigzag at 1e150 under expm1, 5,184 at m = 14). Finite values keep
    the stable order of equal values.
    """
    m = len(values) - 1
    samples = values.tolist()
    labels = [[(0.0, (), ())]]
    for b in range(1, m + 1):
        made = list(labels[b - 1])
        for a in range(b - min_len + 1):
            inc = abs(samples[b] - samples[a])
            if inc > 0:
                for _, incs, pairs in labels[a]:
                    merged = tuple(sorted(incs + (inc,), reverse=True))
                    made.append((family.rank_sum(merged), merged, pairs + ((a, b),)))
        made.sort(key=operator.itemgetter(0), reverse=True)
        if made[0][0] == math.inf:
            tied = next((i for i, label in enumerate(made) if label[0] < math.inf), len(made))
            made[:tied] = sorted(made[:tied], key=operator.itemgetter(1), reverse=True)
        kept = []
        for label in made:
            incs = label[1]
            if not any(len(top) >= len(incs) and all(map(operator.ge, top, incs))
                       for _, top, _ in kept):
                kept.append(label)
        labels.append(kept)
    value, _, pairs = labels[m][0]
    return value, list(pairs), max(map(len, labels))


def _rank_bounds(values, family, min_len=1, ranks=None):
    """Certified (lower, upper, witness pairs, upper rule ``"abel"`` or
    ``"nu"``) when exact search is off the table, all read off one DP table
    of the family's rank-free surrogate gain g: ``B_k = best[0, k]``, the
    most g-gain of at most k intervals, for k up to n = m // min_len.

    Lower: evaluate the true rank objective on the witnesses of every
    column, keep the best.

    Upper of a scaled family, phi_j = w_j g with w_j = 1 / lam_j
    nonincreasing: summation by parts (Abel). Let a collection's j-th
    largest gain be g_j and G_k = g_1 + ... + g_k <= B_k. Then
    ``sum_j w_j g_j = sum_{k<n} (w_k - w_{k+1}) G_k + w_n G_n``
    (g_j = 0 past the collection), and every coefficient is >= 0, so
    ``sum_{k<n} (w_k - w_{k+1}) B_k + w_n B_n`` bounds it. The last term
    carries every rank's share of w_n and cannot be dropped: without it
    the sum of a collection of n equal gains would lose w_n n g. A zero
    step adds nothing, even against an inf B_k. Since the j-th largest
    increment of any collection is at most nu(j)/j, B_k <=
    sum_{j<=k} g(nu(j)/j), so this is never above the nu bound below.

    Upper of an explicit family: its surrogate is x, so the table is the
    suffix modulus table ``nu``, and no single w_j g is its phi_j. The j-th
    largest increment of any collection is at most nu(j)/j, and the gains
    are increasing in x. ``ranks`` past the table's n columns charges
    ranks n + 1.. too, at nu(n)/j: the bound of a finer grid whose modulus
    table is this one's, held at nu(n) past n (as a skeleton's is).
    Neither needs phi_1 >= phi_2 >= ... once the upper charges every rank
    of the input grid: the lower is a real collection, and the upper needs
    only increasing phi_j."""
    m = len(values) - 1
    best, walk = _dp(values, [(family.surrogate, min_len)], m)
    samples = values.tolist()
    lower, witness_pairs = 0.0, []
    for k in range(1, best.shape[1]):
        pairs = walk(k)
        incs = sorted((abs(samples[b] - samples[a]) for a, b in pairs), reverse=True)
        val = family.rank_sum(incs)
        if val > lower:
            lower, witness_pairs = val, pairs
    n = best.shape[1] - 1
    # an input whose increments of length >= min_len are all zero charges
    # no rank, so it reads no weight past the horizon; one whose gains only
    # round to zero does. Every such increment is zero exactly when
    # values[min_len:] and values[:m + 1 - min_len] all equal values[0] =
    # values[m] (the pairs (0, b) and (a, m))
    if n and not (np.any(values[min_len:] != values[0])
                  or np.any(values[:m + 1 - min_len] != values[m])):
        n = 0
    tops = best[0, 1:n + 1]  # B_1..B_n, nondecreasing
    weights = family.rank_weights(n)
    if weights is None:
        caps = tops / np.arange(1, n + 1)
        if n and ranks:
            caps = np.concatenate([caps, tops[-1] / np.arange(n + 1, ranks + 1)])
        upper, rule = family.rank_sum(caps.tolist()), "nu"
    else:
        steps = -np.diff(weights, append=0.0)  # w_k - w_{k+1}, and w_n
        live = steps > 0
        with np.errstate(over="ignore"):
            upper, rule = steps[live] @ tops[live], "abel"
    return lower, max(float(upper), lower), witness_pairs, rule


def _skeleton(values):
    """Grid indices of the turning-point skeleton of ``values``: index 0,
    the first index of every plateau where the nonzero increments change
    sign, and the first index of the final plateau. f is monotone between
    consecutive skeleton points and constant after the last one. A constant
    input keeps its two ends."""
    m = len(values) - 1
    # comparisons, not differences: a range past the largest float cannot
    # overflow them
    moves = np.flatnonzero(values[1:] != values[:-1])
    if len(moves) == 0:
        return np.array([0, m])
    rising = values[moves + 1] > values[moves]
    turns = moves[:-1][rising[1:] != rising[:-1]] + 1
    return np.concatenate(([0], turns, [moves[-1] + 1]))


def _rank_solve(f, levels, oracle_cap):
    """One result per level of ``levels``, a list of ``(family, min_len, p)``:
    ``sup sum phi_j(|f(I_j)|)`` over collections of intervals of grid
    length >= ``min_len``, with value and bounds raised to ``1/p``. This is
    the one place that picks the path of a rank objective.

    The families of ``levels`` are all rank-free (every phi_j the same
    function) or all rank-dependent: the weighted and Schramm forms pass
    one level, and a gauge's levels are powers of one weight sequence,
    rank-free exactly when the weights are. Rank-free levels are the
    uncapped columns of at most two exact DP tables at any m. Each
    rank-dependent level is searched on its own, in order: the label search
    (:func:`_label_search`) is exact up to ``oracle_cap`` cells of the input
    grid and certified bounds take over beyond it. Every path of a level
    whose ``min_len`` fits the skeleton's gap runs on the turning-point
    skeleton of f (:class:`_Skeleton`), made once per f, with min_len 1
    there, which only shrinks the work; the DP puts the levels that fit on
    one skeleton table (:func:`_dp_solve`). Every path raises
    past the horizon alike, before the next level is searched: a positive
    value means up to ``m // min_len`` ranks can be charged, and all of them
    are asked for.

    The label search's dominance rule needs only nondecreasing phi_j >= 0,
    with no ordering and no convexity. The skeleton needs both: phi_1 >=
    phi_2 >= ... on [0, ptp(f)], which an explicit family with rising
    exponents keeps only up to ``family.ordered_to``. Past it a level gets
    certified bounds at any m, still on the skeleton: the lower bound is a
    real collection, and the upper bound charges every rank of the input
    grid, whose modulus table is the skeleton's held at its last column.

    Ties. The search makes the labels of a point in a fixed order (those
    of the point before first, then the extensions from each start a
    ascending) and sorts them by value with a stable sort, so of equal
    finite values the earlier label is kept and reported; of inf values,
    the one with the largest increments.

    Why the skeleton is exact. Let each phi_j be convex with phi_j(0) = 0
    and phi_1 >= phi_2 >= ... on [0, ptp(f)], and let V(X) charge the j-th
    largest increment of X to phi_j. V is
    nondecreasing in each increment, since the phi_j are, and sorting
    only swaps equal ones. Take an optimal collection with no zero
    increment. An endpoint off the skeleton lies in a stretch where f is
    monotone, so it can slide along it, towards the lower value for the
    start of a rising interval and so on, without shrinking any
    increment, until it reaches a skeleton point or the endpoint of a
    neighbour. Two neighbours that meet running in opposite directions
    slide their shared point on together, since that grows both. Two that
    meet running the same way, increments x >= y, merge into one
    interval with increment z >= x + y, and V does not drop. Say y had
    rank s in X; dropping it moves only later ranks up, which loses
    nothing, so the drop is at most phi_s(y). Raising x to z passes the
    increments that lie between x and z, and the gain splits into pieces
    phi_k(b') - phi_k(b) that tile [x, z] with k < s and b >= x >= y. By
    convexity each piece is at least (b' - b) phi_k(b)/b, which is at least
    (b' - b) phi_s(y)/y, as phi_k >= phi_s and phi_s(t)/t is
    nondecreasing. The pieces sum to at least phi_s(y). Each step moves an
    endpoint onto the skeleton or removes an interval, so an optimal
    collection lies on the skeleton.

    The rank-free case needs no more. When every phi_j is one g -- each
    level of the exact DP, and the modulus and the q-form through
    :func:`_dp_solve`, whose g is x or x^q -- the ordering holds with
    equality, and convexity with g(0) = 0 is all the merge uses: g(t)/t is
    nondecreasing, so g(x) <= x g(x + y)/(x + y) and g(y) <= y g(x + y)/(x
    + y), and g(x) + g(y) <= g(x + y) <= g(z), g being nondecreasing. A
    count cap holds throughout: a slide keeps the number of intervals and
    a merge drops one, so the best collection of at most k intervals has
    one on the skeleton too.

    Minimum lengths: the gap rule. Let the gap be the fewest grid cells
    between two consecutive skeleton points, and let every interval need
    ``min_len <= gap`` cells. Start from an optimal admissible collection
    and slide and merge as above; the intervals on the way may be short,
    but the steps end with every endpoint on the skeleton, and then every
    interval spans a gap or more, so it is admissible. Conversely every
    collection on the skeleton is admissible. So the optimum over
    admissible collections is the skeleton's with min_len 1, and a count
    cap holds as before. At ``min_len = gap + 1`` a skeleton interval of
    one gap is not admissible, and the skeleton may report more than the
    optimum: ``[0, 0, 1, 1, 0, 0, 1]`` has skeleton points 0, 2, 4, 6,
    whose three unit steps sum to 3, while at min_len 3 the most is 1.

    Keeping the first index of each plateau keeps the search's tie rule,
    and the DP's (the earliest start, then the smallest end), except where
    a merge leaves V unchanged (phi_j linear with equal gains at both
    ranks, or gains past the largest float): the skeleton then reports the
    merged interval, and V may differ in the last bit. The upper bound on
    the skeleton charges at most as many ranks as it has cells, so it can
    only tighten.
    """
    if levels[0][0].rank_free is not None:
        solved, _ = _dp_solve(f, [(family.rank_free, min_len) for family, min_len, _ in levels])
        solved = [(value, value, "exact-dp", witness) for value, witness in solved]
    else:
        skeleton = _Skeleton(f.values)
        # lazily, so that each level's horizon check runs before the next search
        solved = (_rank_search(f, skeleton, *level, oracle_cap) for level in levels)
    results = []
    for (family, min_len, p), (lower, upper, mode, witness) in zip(levels, solved):
        if lower > 0:  # past the horizon, name k_max + 1: the first rank it lacks
            check_horizon(min(f.m // min_len, family.k_max + 1), family.k_max)
        root = 1.0 / p
        results.append(VariationResult(mode=mode, lower=lower ** root, upper=upper ** root,
                                       witness=witness))
    return results


def _rank_search(f, skeleton, family, min_len, p, oracle_cap):
    """(lower, upper, mode, witness) of one rank-dependent level of
    :func:`_rank_solve`, on ``skeleton`` when ``min_len`` fits its gap."""
    idx = skeleton.grid(min_len)
    notes = []  # why this path, for the debug line
    ranks = None  # set when the range passes the family's ordering
    if family.ordered_to < math.inf:
        # a Python float difference: np.ptp warns past the largest float
        span = float(f.values.max()) - float(f.values.min())
        if span > family.ordered_to:
            ranks = f.m // min_len
            notes.append(f"range {span:.3g} > ordered_to {family.ordered_to:.3g}")
    values, length = (f.values, min_len) if idx is None else (f.values[idx], 1)
    if f.m <= oracle_cap and ranks is None:
        lower, pairs, held = _label_search(values, family, length)
        upper, mode = lower, "exact-oracle"
        notes.append(f"labels {held}")
    else:
        lower, upper, pairs, rule = _rank_bounds(values, family, length, ranks)
        mode = "bounds"
        # the gap of the reported bracket, after the 1/p root
        lo, hi = lower ** (1.0 / p), upper ** (1.0 / p)
        notes.append(f"upper {rule}, gap {1.0 - lo / hi if hi > lo else 0.0:.3g}")
    if _log.isEnabledFor(logging.DEBUG):  # the grid text may measure the gap
        notes.insert(-1, skeleton.text(idx, [min_len]))
        _log.debug("%s: m=%d %s oracle_cap=%d, %s", mode, f.m,
                   "<=" if f.m <= oracle_cap else ">", oracle_cap, ", ".join(notes))
    return lower, upper, mode, _on_grid(f, idx, pairs)


# ---------------------------------------------------------------------------
# public functionals

def modulus_of_variation(f: StepFunction, n: int) -> VariationResult:
    """Maximum total increment over at most ``n`` nonoverlapping intervals."""
    n = check_whole("n", n)
    if n < 1:
        raise ValidationError("n must be >= 1")
    [(value, witness)], best = _dp_solve(f, [(_linear, 1)], n)
    # the modulus is nondecreasing and concave in the interval count, up to
    # round-off relative to the value (an inf value has no differences)
    tol = _REL_TOL * value
    with np.errstate(invalid="ignore"):
        diffs = np.diff(best[0])
        if np.any(diffs < -tol) or np.any(np.diff(diffs) > tol):
            raise InternalConsistencyError("modulus of variation not concave")
    return _exact(value, witness)


def variation_unweighted_q(f: StepFunction, q: float, s_max: int | None = None,
                           min_len: int = 1) -> VariationResult:
    """``(max sum |f(I_j)|^q)^(1/q)`` over at most ``s_max`` intervals of
    grid length >= ``min_len``. Exact: the weights are rank-independent.

    At q = 1 a binding ``s_max`` takes :func:`_dp`'s linear column rule,
    which adds samples to table values, so its error is a few ulps of the
    range of f, not of the value. Where two intervals fit
    (m >= 2 min_len), some admissible interval spans a third of the range
    or more (an extremum pairs with the other, or with an end of the grid,
    and the three increments among them cover the range), so the error is
    a few ulps of the value too. Where only one fits, the admissible
    increments may all lie far below the range -- ``[1e-5, 0, 1, 0]`` at
    ``min_len = 3`` reads 1e-5 -- so that table stays on the block rule."""
    check_q(q)
    min_len = check_whole("min_len", min_len)
    if min_len < 1:
        raise ValidationError("min_len must be >= 1 grid cell")
    if s_max is not None:
        s_max = check_whole("s_max", s_max)
        if s_max < 1:
            raise ValidationError("s_max must be >= 1")
        if s_max >= f.m // min_len:
            s_max = None  # the cap cannot bind
    gain = _linear if q == 1 else (lambda x: x ** q)
    [(inner, witness)], _ = _dp_solve(f, [(gain, min_len)], s_max)
    return _exact(inner ** (1.0 / q), witness)


def variation_weighted(f: StepFunction, weights: WeightSequence, p: float = 1.0,
                       oracle_cap: int = ORACLE_CAP_DEFAULT) -> VariationResult:
    """Waterman-Shiba variation ``sup (sum |f(I_j)|^p / lam_j)^(1/p)`` with
    increments matched to weights in descending order: the p-th root of the
    Schramm variation of ``SchrammFamily.power(p, weights)``."""
    return _rank_solve(f, [(SchrammFamily.power(p, weights), 1, p)], oracle_cap)[0]


def variation_schramm(f: StepFunction, family: SchrammFamily,
                      oracle_cap: int = ORACLE_CAP_DEFAULT) -> VariationResult:
    """``sup sum phi_j(|f(I_j)|)`` over nonoverlapping collections."""
    return _rank_solve(f, [(family, 1, 1.0)], oracle_cap)[0]


def variation_gauged(f: StepFunction, weights: WeightSequence, gauge: GaugePair,
                     n_cap: int, oracle_cap: int = ORACLE_CAP_DEFAULT) -> VariationResult:
    """Constrained variation: max over levels n <= n_cap of the supremum of
    ``(sum |f(I_j)|^{q_n} / lam_j)^{1/q_n}`` over collections whose
    intervals all have length >= ``ceil(m / delta_n)`` grid cells. Each
    level is the weighted variation at exponent q_n on that grid.

    On the grid the interval count is implicitly capped at
    ``floor(m / min_len) <= delta_n``, which coincides with the count cap
    used in the sufficiency arguments.

    Levels that share an exponent are nested: a shorter min_len admits
    every collection of a longer one, so their supremum is the value of
    the level with the shortest min_len, and only that level is solved,
    one per exponent (delta_n is nondecreasing, so it is the last level of
    the exponent). All of them go to one rank solve, which picks the path:
    with rank-free weights (constant, or an explicit list of one value)
    every solved level is an uncapped column of at most two interval DP
    tables, one on the turning-point skeleton for the levels whose min_len
    fits its gap and one on the input grid for the rest, so a constant
    ladder fills one skeleton table; otherwise each solved level is
    searched on its own. Of the exponents, the first (in ladder order)
    with the strictly largest value is reported, at the first level of it
    whose min_len its witness meets: the witness is admissible there, so
    that level attains the value. ``upper`` is the largest upper of the
    solved levels, and the mode is ``bounds`` if any of them is. In bounds
    mode the lower bound is the finest level's, which may lie below a
    coarser level's own lower bound; the bracket holds either way.

    One ``gbv`` debug line names the work, e.g. ``gauged: levels=9,
    exponents=1, solved q=1.5 at min_len 1, level 8``.
    """
    levels = [(q_n, max(1, math.ceil(f.m / delta_n))) for q_n, delta_n in gauge.levels(n_cap)]
    finest = {}  # the shortest min_len per exponent, in ladder order
    for q_n, min_len in levels:
        finest[q_n] = min(min_len, finest.get(q_n, min_len))
    results = dict(zip(finest, _rank_solve(
        f, [(SchrammFamily.power(q_n, weights), min_len, q_n) for q_n, min_len in finest.items()],
        oracle_cap)))
    best = _exact(0.0, IntervalCollection.from_pairs(f, []))
    for q_n, res in results.items():
        if res.lower > best.lower:
            shortest = min(b - a for a, b in res.witness.pairs)
            level = next((n for n, (q, min_len) in enumerate(levels, 1)
                          if q == q_n and min_len <= shortest), None)
            if level is None:
                raise InternalConsistencyError(
                    f"gauged witness has an interval of {shortest} < {finest[q_n]} cells")
            best = replace(res, level=level)
    results = results.values()
    mode = "bounds" if any(r.mode == "bounds" for r in results) else best.mode
    if _log.isEnabledFor(logging.DEBUG):
        solved = ", ".join(f"q={q_n:g} at min_len {min_len}" for q_n, min_len in finest.items())
        _log.debug("gauged: levels=%d, exponents=%d, solved %s, level %s",
                   len(levels), len(finest), solved, best.level)
    return replace(best, mode=mode, upper=max(r.upper for r in results))


def schramm_norm(f: StepFunction, family: SchrammFamily, f_a: float | None = None,
                 oracle_cap: int = ORACLE_CAP_DEFAULT) -> float:
    """Luxemburg-style norm ``|f(a)| + inf{c > 0 : V_Phi(f/c) <= 1}``;
    ``f(a)`` is ``f_a``, which must be finite, or else f's first sample.

    ``V_Phi(f/c)`` depends on f/c only. For a family homogeneous of degree
    d (``family.degree``: a power base, or explicit terms sharing one
    exponent) ``V_Phi(f/c) = c^-d V_Phi(f)``, so the infimum is
    ``V_Phi(f)^(1/d)``: one variation call, on f divided by the exact
    power of two above max|f|, which keeps its range and gains finite, and
    the norm is scaled back at the end. For other families (the ``expm1``
    base, mixed exponents) the infimum is the largest, over collections X,
    of the root c_X of ``sum_j phi_j(x_j / c) = 1`` in X's increments x_j
    sorted down, since each such sum falls as c rises. Dinkelbach's method
    finds it: from the one interval across the range, solve ``V_Phi(f/c)``
    at c = c_X and take the solve's witness as the next X, until
    ``V_Phi(f/c) <= 1`` or the witness's root is not above c. c rises
    strictly, over finitely many collections; two or three variation calls
    are typical. Each root is found to adjacent floats by bisection over
    the bit patterns of the positive floats. On this path f is only scaled
    down, by the power of two above max|f| when that is above 1, so c is a
    float wherever the norm is. A norm past the largest float is inf.

    A rank-free family (constant weights, an explicit weight list of one
    value, or explicit terms that are one repeated pair) is solved by the
    exact DP, so its norm is exact at any m. Otherwise, above
    ``oracle_cap`` grid cells, or when the range of f/c passes
    ``family.ordered_to``, the variation is only bracketed and its
    certified lower bound is used, so the norm returned is a lower bound
    on the true norm: for a homogeneous family the true norm lies in
    ``[|f(a)| + lower^(1/d), |f(a)| + upper^(1/d)]`` of
    :func:`variation_schramm`, and for another family c is the root of a
    real collection, which is at most the infimum.
    """
    if f_a is None:
        f_a = float(f.values[0])
    elif not math.isfinite(check_real("f_a", f_a)):
        raise ValidationError(f"f_a={f_a} must be finite")
    values = f.values
    if values.min() == values.max():
        return abs(f_a)
    shift = math.frexp(np.max(np.abs(values)))[1]
    if (degree := family.degree) is not None:
        # in bounds mode the value is the certified lower bound
        return _norm(f_a, variation_schramm(StepFunction(np.ldexp(values, -shift)), family,
                                            oracle_cap).lower ** (1.0 / degree), shift)

    # f is only scaled down, so c is a float wherever the norm is
    shift = max(shift, 0)
    values = np.ldexp(values, -shift)
    # V(f/c) reads only increments, and f - min f keeps f/c finite where they are
    rest = values - values.min()
    # Dinkelbach: c* is the max over collections X of the root c_X of
    # rank_sum(incs(X) / c) = 1. A witness of V(f/c) > 1 has its root above
    # c but for the rounding of f/c, so the loop stops where it does not
    c, incs = 0.0, [float(np.ptp(values))]  # the one interval across the range
    while (root := _collection_root(family, incs)) > c:
        c = root
        res = variation_schramm(StepFunction(rest / c), family, oracle_cap)
        if res.lower <= 1.0:
            break
        incs = sorted((abs(float(values[b]) - float(values[a])) for a, b in res.witness.pairs),
                      reverse=True)
    return _norm(f_a, c, shift)


def _collection_root(family, incs):
    """The least positive float c with ``rank_sum(incs / c) <= 1``, for
    ``incs`` in descending order: a bisection over the bit patterns of the
    positive floats, which order them as their values do, so it ends at
    adjacent floats after at most 63 sums. inf past the largest float. A
    :class:`ValidationError` when ``incs / c`` is past the largest float at
    the float below c, where the sum cannot tell whether c is the root."""
    def at(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]

    def fits(bits):
        c = at(bits)
        return family.rank_sum([x / c for x in incs]) <= 1.0

    bits = 1 + bisect.bisect_left(range(1, _INF_BITS + 1), True, key=fits)
    if bits > 1 and incs[0] / at(bits - 1) == math.inf:
        raise ValidationError("f/c is past the largest float below the norm's c")
    return at(bits)


def _norm(f_a, c, shift):
    """``|f(a)| + c 2^shift``: inf past the largest float."""
    try:
        return abs(f_a) + math.ldexp(c, shift)
    except OverflowError:
        return math.inf
