"""Weight sequences, convex function families and gauge ladders.

Three building blocks used by every other module:

* :class:`WeightSequence` -- a nondecreasing positive sequence ``lam_j`` with
  prefix sums ``L(k) = sum_{j<=k} 1/lam_j``, computed on demand.
* :class:`SchrammFamily` -- an ordered family of increasing convex functions
  ``phi_j`` with partial sums ``Phi_k`` and their inverses: closed form for
  a scaled family, monotone Newton, to ``Phi_k``'s own round-off, for
  explicit terms.
* :class:`GaugePair` -- an exponent ladder ``q_n`` together with a scale
  ladder ``delta_n``.

All three are immutable after construction and safe for concurrent reads:
a weight sequence computes its weights from the kind's formula at each
read, builds its exact prefix table once and swaps it in as one attribute,
and the values never change. A Schramm family caches its per-rank
parameters (lam_j, or (c_j, e_j) for explicit terms) the same way:
:meth:`SchrammFamily.rank_sum` reads one list and, when a sum needs more
ranks, builds one at least twice as long and swaps it in.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import HorizonError, HypothesisError, ValidationError

DEFAULT_K_MAX = 1 << 20
DEFAULT_N_MAX = 64
#: levels of a pow2 delta ladder: 2^1024 is past the largest float
_POW2_LEVELS = 1023

#: k values one numpy pass handles together; bounds the temporaries of the
#: explicit inverse and of the rising-ratio check
K_CHUNK = 1 << 16
#: prefix sums are a running sum up to this k and a closed form past it
PREFIX_ANCHOR = 4096

WEIGHT_KINDS = ("constant", "harmonic", "power", "log", "explicit")
#: the one parameter each weight kind reads; the other kinds read none
WEIGHT_PARAMS = {"constant": "value", "power": "alpha", "explicit": "terms"}


def check_real(name, x):
    """``x``, after checking that it is a real number, not a bool or a
    string: the one type check of a numeric parameter, whose
    :class:`ValidationError` names it."""
    # an int or a float skips the abstract-class check, the slow part
    if type(x) not in (int, float) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise ValidationError(f"{name} must be a number, not {x!r}")
    return x


def check_reals(name, values):
    """``values`` as a new float array, after checking that each entry is a
    real number, not a bool or a string: :func:`check_real` over an array,
    whose :class:`ValidationError` names the first entry that fails."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":  # a bool, string, complex or object array
        for x in np.asarray(values, dtype=object).ravel().tolist():  # the entries as given
            check_real(name, x)
    return array.astype(float)


def check_whole(name, x, least=None):
    """``x`` as an int, after checking that it is a whole number, and at
    least ``least`` when that is given: the one check of a count, whose
    :class:`ValidationError` names it."""
    if check_real(name, x) % 1:  # a fraction, inf or nan
        raise ValidationError(f"{name} must be a whole number, not {x!r}")
    if least is not None and x < least:
        raise ValidationError(f"{name} must be >= {least}")
    return int(x)


def check_q(q):
    """Raise :class:`ValidationError` unless the exponent ``q`` is a real
    number in ``[1, inf)``: the one check of a variation exponent."""
    if not 1 <= check_real("q", q) < math.inf:
        raise ValidationError("q must be >= 1")


def _check_config(cfg, required, optional=()):
    """Raise :class:`ValidationError` unless ``cfg`` is an object (a dict)
    that holds every key of ``required`` and no key outside ``required``
    and ``optional``: the one check of a config before it is read."""
    if not isinstance(cfg, dict):
        raise ValidationError(f"a config must be an object, not {cfg!r}")
    for key in required:
        if key not in cfg:
            raise ValidationError(f"config {cfg!r} lacks the key {key!r}")
    for key in cfg:
        if key not in required and key not in optional:
            raise ValidationError(f"config {cfg!r} has the unexpected key {key!r}")


def check_horizon(k, k_max):
    """``k``, an index or an array of them (a list, tuple or ndarray), after
    checking that each is a whole number inside ``1..k_max``: the one check
    of an index. An index that is no whole number raises
    :func:`check_whole`'s error, and one outside the horizon a
    :class:`HorizonError` that names it, the first outside in an array: the
    one source of that error. A scalar is returned as an int, an array as
    an int64 array."""
    if not isinstance(k, (list, tuple, np.ndarray)):
        k = k if type(k) is int else check_whole("index", k)  # an int is whole
        if not 1 <= k <= k_max:
            raise HorizonError(f"index {k} outside horizon 1..{k_max}")
        return k
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        # the first index that is no whole number raises: a fraction, inf or
        # nan of a float array, or any entry of a bool, string or object one
        with np.errstate(invalid="ignore"):  # inf % 1 is nan
            rest = ks[ks % 1 != 0] if ks.dtype.kind == "f" else np.asarray(k, dtype=object)
        for x in rest.ravel().tolist():
            check_whole("index", x)
    if ks.size and not 1 <= ks.min() <= ks.max() <= k_max:
        outside = ks[(ks < 1) | (ks > k_max)].tolist()[0]
        raise HorizonError(f"index {outside} outside horizon 1..{k_max}")
    return ks.astype(np.int64, copy=False)


class WeightSequence:
    """A nondecreasing positive weight sequence with prefix sums.

    Weights are computed from the kind's formula at each read and are not
    kept, so a sequence costs nothing until it is read; a reader that needs
    them again keeps its own copy.

    The prefix sums ``L(k) = sum_{j<=k} 1/lam_j`` are a running sum up to
    ``anchor`` (``PREFIX_ANCHOR``, or the length of an explicit list when
    that is longer), built on the first prefix read; past it ``L(k)`` is
    ``L(anchor)`` plus the kind's closed-form tail, so reading ``L`` at any
    k costs O(1). The tail is ``(k - anchor) / lam_last`` for ``constant``
    and ``explicit``, and an Euler-Maclaurin sum (the integral of
    ``f = 1/lam`` plus its ``f/2`` and ``f'/12`` terms) for ``harmonic``,
    ``power`` and ``log``. Up to 2^20, ``L(k)`` lies within 1e-13 relative
    of ``math.fsum`` of the terms, where a running sum drifts up to 1.5e-11
    away. The dense, scalar and array reads agree bit for bit.

    Built-in kinds diverge (``sum 1/lam_j = inf``) by construction; for
    ``explicit`` lists this cannot be checked and is the caller's
    assumption.

    ``WEIGHT_PARAMS`` names the one parameter each kind reads: ``value``
    (1.0 when not given) for ``constant``, ``alpha`` for ``power`` and
    ``terms`` for ``explicit``; a kind given a parameter it does not read
    raises ``ValidationError``. A ``constant`` sequence keeps ``terms =
    (value,)``, so it reads its weights and prefix sums as the one-term
    ``explicit`` list does.
    """

    def __init__(self, kind, *, alpha=None, value=None, terms=None,
                 k_max=DEFAULT_K_MAX):
        if kind not in WEIGHT_KINDS:
            raise ValidationError(f"unknown weight sequence kind {kind!r}")
        for key, arg in (("value", value), ("alpha", alpha), ("terms", terms)):
            if arg is not None and WEIGHT_PARAMS.get(kind) != key:
                raise ValidationError(f"a {kind} weight sequence takes no {key}")
        self.k_max = check_whole("k_max", k_max, 1)
        self.kind = kind
        self.alpha = alpha
        self.value = 1.0 if value is None else value
        self.terms = None
        # the built-in formulas are positive and nondecreasing; only the
        # parameters and an explicit list can break that
        if kind == "constant":
            if not 0 < check_real("value", self.value) < math.inf:
                raise ValidationError("constant weight must be positive")
            self.terms = (float(self.value),)
        if kind == "power" and (alpha is None or not 0 < check_real("alpha", alpha) <= 1):
            raise ValidationError("power kind needs 0 < alpha <= 1")
        if kind == "explicit":
            if not isinstance(terms, (list, tuple)) or not terms:
                raise ValidationError("explicit kind needs a nonempty list")
            self.terms = tuple(float(check_real("a weight in terms", t)) for t in terms)
            # extension by the last value keeps monotonicity
            head = np.array(self.terms[:self.k_max])
            if not np.all((head > 0) & (head < math.inf)):
                raise ValidationError("weights must be positive")
            if np.any(np.diff(head) < -1e-15 * head[:-1]):
                raise ValidationError("weights must be nondecreasing")
        #: the last k of the exact prefix table
        self.anchor = min(self.k_max, max(PREFIX_ANCHOR, len(self.terms or ())))
        self._head = None  # L(1..anchor)

    def _formula(self, n):
        """``lam_1..lam_n`` from the kind's formula."""
        if self.terms is not None:
            lam = np.full(n, self.terms[-1])
            head = min(len(self.terms), n)
            lam[:head] = self.terms[:head]
            return lam
        j = np.arange(1, n + 1, dtype=float)
        if self.kind == "harmonic":
            return j
        if self.kind == "power":
            return j ** float(self.alpha)
        return j / np.log(j + 1.0)

    def _growth(self):
        """``(a, b)`` with ``lam_j = c j^a / log(j + 1)^b`` for some c > 0 and
        every j past ``anchor``."""
        if self.kind == "power":
            return float(self.alpha), 0
        return {"harmonic": (1.0, 0), "log": (1.0, 1)}.get(self.kind, (0.0, 0))

    def _tail(self, ks):
        """``L(k) - L(anchor)`` in closed form at an int array ``ks >= 1``;
        meaningful where ``k > anchor``."""
        n = self.anchor
        if self.terms is not None:
            with np.errstate(over="ignore"):  # inf past the largest float
                return (ks - n) / self.terms[-1]
        k, n = ks.astype(float), float(n)
        x = np.log(k / n)  # k / n is exact where it matters: n = PREFIX_ANCHOR
        # Euler-Maclaurin: sum_{n<j<=k} f(j) = int_n^k f + e(k) - e(n) with
        # e = f/2 + f'/12; the next term, f'''/720, is below 1e-16 past n
        if self.kind == "log":
            # f(t) = log1p(t)/t = log(t)/t + sum_i (-1)^(i+1) t^(-i-1)/i
            # integrates to log(t)^2/2 - S(t), S(t) = sum_i (-1)^(i+1) t^-i/i^2
            def ends(t):
                u = 1.0 / t
                f = np.log1p(t) * u
                s = u * (1.0 - u * (0.25 - u * (1.0 / 9.0 - u / 16.0)))
                return f / 2.0 + u * (1.0 / (t + 1.0) - f) / 12.0 - s
            total = x * (0.5 * x + math.log(n))
        else:
            a = 1.0 if self.kind == "harmonic" else float(self.alpha)

            def ends(t):
                f = 1.0 / t if a == 1.0 else t ** -a
                return f / 2.0 - a * f / t / 12.0
            total = x if a == 1.0 else n ** (1.0 - a) * np.expm1((1.0 - a) * x) / (1.0 - a)
        return total + ends(k) - ends(n)

    def _prefix_head(self):
        head = self._head
        if head is None:
            with np.errstate(over="ignore"):  # inf past the largest float
                head = np.cumsum(1.0 / self._formula(self.anchor))
            head.setflags(write=False)
            self._head = head
        return head

    def weights(self, k):
        """``lam_1..lam_k`` as a new array."""
        return self._formula(check_horizon(k, self.k_max))

    def prefix_sum(self, k):
        """Return ``L(k) = sum_{j=1}^{k} 1/lam_j``."""
        return self.prefix_sums_at(k).item()

    def prefix_sums(self, k):
        """``L(1..k)`` as a read-only array."""
        k = check_horizon(k, self.k_max)
        if k <= self.anchor:  # a view of the exact table
            return self._prefix_head()[:k]
        pref = self.prefix_sums_at(np.arange(1, k + 1))
        pref.setflags(write=False)
        return pref

    def prefix_sums_at(self, ks):
        """``L(k)`` at every k of an index or an array of them, as a new
        array of its shape."""
        ks = np.asarray(check_horizon(ks, self.k_max))
        top = ks.max(initial=1)
        head = self._prefix_head()
        # "clip" reads L(anchor) for every k past it, which np.where replaces
        inside = head.take(ks - 1, mode="clip")
        if top <= self.anchor:
            return inside
        return np.where(ks > self.anchor, head[-1] + self._tail(ks), inside)

    def check_rising_ratio(self, other, k):
        """Raise :class:`HypothesisError`, with the first bad j as ``index``,
        unless ``Gamma(j)/Lambda(j)`` is nondecreasing over j <= k, for this
        sequence as Gamma and ``other`` as Lambda: the second-part
        hypothesis of theorems 1.4 and 1.7 and of the Hoelder branch."""
        # Gamma(k)/Lambda(k) = sum_{j<=k} r_j / lam_j / Lambda(k) is a weighted
        # mean of r_j = lam_j / gamma_j: a nondecreasing r (Gamma constant, or
        # Gamma = Lambda) proves it without a prefix read. r is read from the
        # weights up to one past both anchors, and beyond them from the kinds'
        # growth lam_j = c j^a / log(j + 1)^b
        m = min(k, max(self.anchor, other.anchor) + 1)
        r = other.weights(m) / self.weights(m)
        if not np.any(r[1:] < r[:-1]):
            if m == k:
                return
            (a_lam, b_lam), (a_gam, b_gam) = other._growth(), self._growth()
            da, db = a_lam - a_gam, b_gam - b_lam
            # past m, d log r / dj = da / j + db / ((j + 1) log(j + 1)), which
            # is >= 0 when da >= 0 and either db >= 0 or da log(m + 1) >= -db
            if da >= 0 and (db >= 0 or da * math.log(m + 1) >= -db):
                return
        # otherwise every step is checked, one block of k at a time, so a
        # failure stops at its block; blocks overlap by one k, so every step
        # k -> k + 1 is checked once
        for start in range(0, k - 1, K_CHUNK):
            ks = np.arange(start + 1, min(start + K_CHUNK + 1, k) + 1)
            ratio = self.prefix_sums_at(ks) / other.prefix_sums_at(ks)
            bad = np.flatnonzero(np.diff(ratio) < -1e-12 * ratio[:-1])
            if len(bad):
                i = start + int(bad[0]) + 2
                raise HypothesisError(f"Gamma(k)/Lambda(k) decreases at k={i}", index=i)

    def to_config(self):
        cfg = {"kind": self.kind, "k_max": self.k_max}
        key = WEIGHT_PARAMS.get(self.kind)
        if key is not None:
            arg = getattr(self, key)
            cfg[key] = list(arg) if key == "terms" else arg
        return cfg

    @classmethod
    def from_config(cls, cfg):
        _check_config(cfg, ("kind",), ("alpha", "value", "terms", "k_max"))
        cfg = dict(cfg)
        kind = cfg.pop("kind")
        return cls(kind, **cfg)

    def __repr__(self):
        return f"WeightSequence(kind={self.kind!r}, k_max={self.k_max})"


class ConvexBase:
    """A strictly increasing convex function on [0, inf) with phi(0) = 0.

    Two parametric shapes cover everything the built-in families need:
    ``power`` (x^p, p >= 1) and ``expm1`` (e^x - 1). Both have closed-form
    inverses, which the partial-inverse fast path exploits.
    """

    def __init__(self, shape, p=None):
        if shape == "power":
            # the one check of the exponent range of Lambda BV^(p)
            if p is None or not 1 <= check_real("p", p) < math.inf:
                raise ValidationError(f"p must be in [1, inf) (p={p})")
            self.p = float(p)
        elif shape != "expm1":
            raise ValidationError(f"unknown convex base shape {shape!r}")
        self.shape = shape

    def __call__(self, x):
        if self.shape == "power":
            return np.power(x, self.p)
        return np.expm1(x)

    def inverse(self, y):
        if self.shape == "power":
            return np.power(y, 1.0 / self.p)
        return np.log1p(y)

    def to_config(self):
        if self.shape == "power":
            return {"power": self.p}
        return {"expm1": True}

    @classmethod
    def from_config(cls, cfg):
        _check_config(cfg, (), ("power", "expm1"))
        if "power" in cfg:
            return cls("power", p=cfg["power"])
        if cfg.get("expm1"):
            return cls("expm1")
        raise ValidationError(f"unknown convex base config {cfg!r}")


class SchrammFamily:
    """An ordered family phi_1 >= phi_2 >= ... of increasing convex functions.

    Kinds:

    * ``scaled`` -- phi_j(x) = base(x) / lam_j for a convex base and a
      :class:`WeightSequence`; this includes the power case base(x) = x^p.
    * ``explicit`` -- per-index (coef, exponent) pairs phi_j(x) = c_j x^{e_j},
      extended beyond the list by the last pair. A falling exponent, or
      equal exponents with a rising coefficient, is rejected at
      construction: either breaks phi_{j+1} <= phi_j at every scale.

    A rising exponent keeps the order only up to ``ordered_to``, the first
    crossing; past it the family is not a Phi-sequence in Schramm's sense,
    which asks phi_{j+1} <= phi_j at every x. The engine then computes the
    sorted charge: the j-th largest increment is charged phi_j
    (:meth:`rank_sum`). Membership in Phi BV looks only at f/c for large c,
    that is, at small increments, so the paper's classes never see the
    crossing.

    A scaled family's horizon ``k_max`` is its weights'; an explicit one
    takes ``k_max`` (default ``DEFAULT_K_MAX``).
    """

    def __init__(self, kind, *, base=None, weights=None, terms=None,
                 k_max=None):
        #: the gain every rank shares when phi_j does not depend on j, else None
        self.rank_free = None
        #: phi_1 >= phi_2 >= ... holds on [0, ordered_to]: a rising exponent
        #: e_{j+1} > e_j holds it up to the crossing (c_j/c_{j+1})^(1/(e_{j+1}-e_j))
        self.ordered_to = math.inf
        #: the rank-free gain the bounds read: g of phi_j = rank_weights(n)[j - 1]
        #: * g when scaled, whose top-k dual fills their DP columns; x, the
        #: gain of the nu table, for an explicit family
        self.surrogate = lambda x: x
        # lam_j or (c_j, e_j) per rank for rank_sum, grown on demand. Each kind
        # picks its per-rank formula once below, with scalar ** (libm pow):
        # numpy's array power can differ in the last bit
        self._ranks = []
        if kind == "scaled":
            if base is None or weights is None:
                raise ValidationError("scaled kind needs base and weights")
            if k_max is not None:
                raise ValidationError("a scaled family takes k_max from its weights")
            self.base = base
            self.weights = weights
            self.k_max = weights.k_max
            self.terms = None
            self._rank_terms = lambda n: weights.weights(n).tolist()
            if self.base.shape == "power":
                p = self.base.p
                self._sum = lambda xs, lams: sum([x ** p / lam for x, lam in zip(xs, lams)])
                # numpy's ** takes exact fast paths (x^1 as a copy, x^2 as
                # x*x) that np.power does not
                self.surrogate = lambda x: x ** p
            else:
                self._sum = lambda xs, lams: sum([math.expm1(x) / lam
                                                  for x, lam in zip(xs, lams)])
                self.surrogate = self.base
            if weights.terms is not None and len(set(weights.terms[:weights.k_max])) == 1:
                base, c = self.surrogate, 1.0 / weights.weights(1).item()
                self.rank_free = lambda x: c * base(x)
        elif kind == "explicit":
            if not isinstance(terms, (list, tuple)) or not terms:
                raise ValidationError("explicit kind needs a nonempty list")
            for t in terms:
                if not isinstance(t, (list, tuple)) or len(t) != 2:
                    raise ValidationError(
                        f"explicit terms must be (coef, exponent) pairs, not {t!r}")
            self.terms = tuple((float(check_real("a coef in terms", c)),
                                float(check_real("an exponent in terms", e))) for c, e in terms)
            for c, e in self.terms:
                if not (0 < c < math.inf and 1 <= e < math.inf):
                    raise ValidationError("explicit terms need coef > 0, exponent >= 1")
            # phi_{j+1} / phi_j = (c_{j+1} / c_j) x^(e_{j+1} - e_j): pairs that
            # break phi_{j+1} <= phi_j at every scale are rejected here; a
            # rising exponent holds up to its crossing
            for j, ((c, e), (c1, e1)) in enumerate(zip(self.terms, self.terms[1:]), 1):
                if e1 < e or (e1 == e and c1 > c):
                    where = "near 0" if e1 < e else "for every x > 0"
                    raise ValidationError(f"explicit terms {j} and {j + 1}: "
                                          f"phi_{j + 1} > phi_{j} {where}")
                if e1 > e:
                    try:  # a crossing past the largest float is none
                        self.ordered_to = min(self.ordered_to, (c / c1) ** (1.0 / (e1 - e)))
                    except OverflowError:
                        pass
            self.base = None
            self.weights = None
            self.k_max = DEFAULT_K_MAX if k_max is None else check_whole("k_max", k_max, 1)
            terms = self.terms  # extended beyond the list by the last pair
            self._rank_terms = lambda n: [*terms[:n], *[terms[-1]] * (n - len(terms))]
            self._sum = lambda xs, ranks: sum([c * x ** e for x, (c, e) in zip(xs, ranks)])
            if len(set(terms)) == 1:
                c, e = terms[0]
                self.rank_free = lambda x: c * x ** e
        else:
            raise ValidationError(f"unknown Schramm family kind {kind!r}")
        self.kind = kind

    @classmethod
    def power(cls, p, weights):
        """phi_j(x) = x^p / lam_j."""
        return cls("scaled", base=ConvexBase("power", p=p), weights=weights)

    @property
    def degree(self):
        """``d`` with ``phi_j(c x) = c^d phi_j(x)`` for every j and c > 0, or
        None: a power base x^p scaled by weights has d = p, an explicit
        family whose terms share one exponent e has d = e."""
        if self.kind == "scaled":
            return self.base.p if self.base.shape == "power" else None
        exps = {e for _, e in self.terms}
        return exps.pop() if len(exps) == 1 else None

    def rank_sum(self, xs):
        """``phi_1(xs[0]) + phi_2(xs[1]) + ...`` over a list of floats: inf
        past the largest float, and past the horizon a :class:`HorizonError`
        that names the first index it lacks."""
        ranks = self._ranks_to(len(xs))
        try:
            return self._sum(xs, ranks)
        except OverflowError:  # a gain past the largest float
            return math.inf

    def rank_weights(self, n):
        """``[w_1, ..., w_n]`` with ``phi_j = w_j * surrogate``: ``1 / lam_j``
        for a scaled family, past the horizon the :class:`HorizonError` of
        :meth:`rank_sum`. None for an explicit family, whose surrogate x is
        no factor of its phi_j."""
        if self.kind != "scaled":
            return None
        return [1.0 / lam for lam in self._ranks_to(n)[:n]]

    def _ranks_to(self, n):
        """The rank cache, grown to at least ``n`` ranks (at least doubling,
        up to ``k_max``)."""
        ranks = self._ranks
        if n > len(ranks):
            # past the horizon, name k_max + 1: the first rank it lacks
            check_horizon(min(n, self.k_max + 1), self.k_max)
            ranks = self._ranks = self._rank_terms(min(self.k_max, max(n, 2 * len(ranks))))
        return ranks

    def partial_sum(self, k, x):
        """Evaluate Phi_k(x) = sum_{j<=k} phi_j(x); ``k`` and ``x`` broadcast.

        Terms past k add an exact 0.0, so an array k gives per element the
        same float as a scalar k.
        """
        k = np.asarray(check_horizon(k, self.k_max))
        with np.errstate(over="ignore"):  # inf past the largest float, as rank_sum
            total = (self.base(x) * self.weights.prefix_sums_at(k) if self.kind == "scaled"
                     else self._phi_and_slope(k, x)[0])
        return total if total.ndim else float(total)

    def _groups(self, ks):
        """``(count, a, e)`` per explicit term, with ``phi_j(x) = (a x)^e``
        for ``a = c^(1/e)``: ``Phi_k`` holds term j ``count`` times, once
        for j < L <= k and ``k - L + 1`` times for the last pair L, which
        extends the list. ``a x`` is in range wherever ``phi_j(x)`` is, where
        ``x^e`` alone may under- or overflow."""
        for j, (c, e) in enumerate(self.terms, 1):
            yield np.clip(ks - j + 1, 0, None if j == len(self.terms) else 1), c ** (1.0 / e), e

    def _phi_and_slope(self, ks, x):
        """``Phi_k(x)`` and ``Phi_k'(x)`` of an explicit family; ``ks`` and
        ``x`` broadcast."""
        phi = slope = 0.0
        for n, a, e in self._groups(ks):
            # n multiplies after the where: a group that k leaves out (n = 0)
            # would give 0 * inf = nan where its phi_j(x) overflows
            phi = phi + n * np.where(n > 0, np.power(a * x, e), 0.0)
            slope = slope + n * (e * a) * np.where(n > 0, np.power(a * x, e - 1.0), 0.0)
        return phi, slope

    def partial_inverse_many(self, ks, y):
        """``Phi_k^{-1}(y)`` over an array of k values, for one
        target ``y`` or an array of targets that broadcasts against ``ks``;
        the result has the broadcast shape.

        Scaled families invert analytically through the base. Explicit ones
        run monotone Newton (:meth:`_newton`) on all (k, y) pairs at once,
        in chunks of ``K_CHUNK``. Every element is computed on its own, so
        it is the same float whatever else is inverted with it.
        """
        if not np.all(np.greater_equal(y, 0)):  # a negative or nan target
            raise ValidationError("inverse target must be nonnegative")
        ks = np.asarray(check_horizon(ks, self.k_max))
        if self.kind == "scaled":  # base.inverse(0) is 0
            return self.base.inverse(y / self.weights.prefix_sums_at(ks))
        shape = np.broadcast_shapes(ks.shape, np.shape(y))
        ks, y = (np.broadcast_to(a, shape).ravel() for a in (ks, y))
        x = np.empty(len(ks))
        for i in range(0, len(ks), K_CHUNK):
            x[i:i + K_CHUNK] = self._newton(ks[i:i + K_CHUNK], y[i:i + K_CHUNK])
        return x.reshape(shape)

    def _newton(self, ks, y):
        """``Phi_k^{-1}(y)`` per element of the 1-d arrays ``ks`` and
        ``y >= 0``, by Newton's method from the right of the root.

        Phi_k is convex and increasing with Phi_k(0) = 0, and it is at least
        each group ``count * c x^e`` of :meth:`_groups`, so the least group
        root ``(y / (count c))^(1/e)`` lies right of the root (Fourier's
        condition), and a Newton step from there, or from any point, lands
        right of it again: the iterates fall onto the root. The start is
        computed as ``y^(1/e) count^(-1/e) / c^(1/e)``, whose factors stay
        in range where ``y / (count c)`` would under- or overflow and the
        root is a float. Its rounding (1/e is rounded too) can put it just
        left of the root, so the first step may rise; every later step must
        fall. An element stops at its first step that does not land in
        ``[0, x)`` and keeps that x. From the second step on, each moving x
        strictly decreases over the floats, so the loop ends, at the root to
        Phi_k's own round-off. It takes 3.4 evaluations of Phi_k and Phi_k'
        per k on average over the 2^20 k of a four-term family, and at most
        11 on families with coefficients of 1e+-300 and exponents up to 1000.

        The float edge cases run in one ``np.errstate`` scope, so no
        RuntimeWarning escapes. A root past the largest float has an
        infinite start, whose step is nan, and reads inf; a start where
        Phi_k overflows (y within a factor L of the largest float) is kept,
        an upper bound.
        """
        with np.errstate(all="ignore"):
            x = np.full(len(ks), np.inf)
            for n, a, e in self._groups(ks):
                # fmin skips the nan 0 * inf of y = 0 and count 0: the start,
                # and so the inverse, of 0 is 0
                x = np.fmin(x, np.power(y, 1.0 / e) * np.power(n, -1.0 / e) / a)
            idx, top = np.arange(len(ks)), np.inf  # the moving elements and their x
            while len(idx):
                phi, slope = self._phi_and_slope(ks[idx], x[idx])
                step = x[idx] - (phi - y[idx]) / slope
                go = (step >= 0.0) & (step < top)
                idx, top = idx[go], step[go]
                x[idx] = top
        return x

    def to_config(self):
        if self.kind == "scaled":
            return {"kind": "scaled", "base": self.base.to_config(),
                    "weights": self.weights.to_config()}
        return {"kind": "explicit", "terms": [list(t) for t in self.terms],
                "k_max": self.k_max}

    @classmethod
    def from_config(cls, cfg):
        _check_config(cfg, ("kind",), ("base", "weights", "p", "terms", "k_max"))
        kind = cfg["kind"]
        if kind == "scaled":
            _check_config(cfg, ("kind", "base", "weights"))
            return cls("scaled", base=ConvexBase.from_config(cfg["base"]),
                       weights=WeightSequence.from_config(cfg["weights"]))
        if kind == "power":
            # convenience spelling: {"kind": "power", "p": 2, "weights": {...}}
            _check_config(cfg, ("kind", "p", "weights"))
            return cls.power(cfg["p"], WeightSequence.from_config(cfg["weights"]))
        if kind != "explicit":
            raise ValidationError(f"unknown Schramm family kind {kind!r}")
        _check_config(cfg, ("kind", "terms"), ("k_max",))
        return cls("explicit", terms=cfg["terms"], k_max=cfg.get("k_max"))

    def __repr__(self):
        return f"SchrammFamily(kind={self.kind!r}, k_max={self.k_max})"


class GaugePair:
    """Exponent ladder ``q_n`` (nondecreasing, >= 1) and scale ladder
    ``delta_n`` (nondecreasing, >= 2), truncated at ``n_max`` levels.

    ``q_limit`` records the symbolic limit of the ladder (``math.inf``
    allowed); kernels only ever use the finite ``q_n``.
    """

    def __init__(self, qn, deltas, *, q_limit=None):
        qn = check_reals("a q_n", qn)
        deltas = check_reals("a delta_n", deltas)
        if qn.shape != deltas.shape or qn.ndim != 1 or len(qn) < 1:
            raise ValidationError("q_n and delta_n ladders must match in length")
        if not np.all((qn >= 1) & (qn < math.inf)) or np.any(np.diff(qn) < 0):
            raise ValidationError("need 1 <= q_n nondecreasing")
        if not np.all((deltas >= 2) & (deltas < math.inf)) or np.any(np.diff(deltas) < 0):
            raise ValidationError("need 2 <= delta_n nondecreasing")
        self.qn = qn
        self.deltas = deltas
        self.qn.setflags(write=False)
        self.deltas.setflags(write=False)
        self.n_max = len(qn)
        self.q_limit = float(qn[-1]) if q_limit is None else q_limit

    @classmethod
    def build(cls, qn_kind="linear", delta_kind="pow2", *, n_max=DEFAULT_N_MAX,
              q=None, qn_list=None, delta_list=None):
        """Assemble a gauge pair from named ladder kinds.

        qn kinds: ``linear`` (q_n = n, limit inf), ``const`` (q_n = q),
        ``to`` (q_n = q - (q - 1)/n, limit q), ``list``.
        delta kinds: ``pow2`` (delta_n = 2^n), ``list``.
        """
        # the ladder lengths are checked before any array is built
        if qn_kind == "list":
            if qn_list is None or len(qn_list) == 0:
                raise ValidationError("list qn ladder needs qn_list")
            n_max = len(qn_list)
        else:
            n_max = check_whole("n_max", n_max, 1)
        if delta_kind == "pow2":
            if n_max > _POW2_LEVELS:
                raise ValidationError(f"a pow2 delta ladder has at most {_POW2_LEVELS} levels "
                                      f"(2^1024 is past the largest float), not {n_max}")
        elif delta_kind == "list":
            if delta_list is None or len(delta_list) == 0:
                raise ValidationError("list delta ladder needs delta_list")
            if len(delta_list) < n_max:
                raise ValidationError("delta ladder shorter than qn ladder")
        else:
            raise ValidationError(f"unknown delta ladder kind {delta_kind!r}")

        n = np.arange(1, n_max + 1, dtype=float)
        if qn_kind == "linear":
            qn, q_limit = n, math.inf
        elif qn_kind == "const":
            if q is None:
                raise ValidationError("const qn ladder needs q")
            qn, q_limit = np.full(n_max, float(check_real("q", q))), float(q)
        elif qn_kind == "to":
            if q is None or check_real("q", q) <= 1:
                raise ValidationError("'to' qn ladder needs q > 1")
            qn, q_limit = q - (q - 1.0) / n, float(q)
        elif qn_kind == "list":  # the constructor checks it and takes its last q
            qn, q_limit = qn_list, None
        else:
            raise ValidationError(f"unknown qn ladder kind {qn_kind!r}")
        deltas = 2.0 ** np.arange(1, n_max + 1) if delta_kind == "pow2" else delta_list
        return cls(qn[:n_max], deltas[:n_max], q_limit=q_limit)

    def levels(self, n):
        """The first ``n`` rungs as a list of ``(q_n, delta_n)`` Python
        floats; the one check of a level count."""
        n = check_whole("level count", n)
        if not 1 <= n <= self.n_max:
            raise ValidationError(f"level count {n} outside 1..{self.n_max}")
        return list(zip(self.qn[:n].tolist(), self.deltas[:n].tolist()))

    def __repr__(self):
        return (f"GaugePair(n_max={self.n_max}, q_limit={self.q_limit}, "
                f"delta_1={self.deltas[0]})")
