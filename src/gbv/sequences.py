"""Weight sequences, convex function families and gauge ladders.

Three building blocks used by every other module:

* :class:`WeightSequence` -- a nondecreasing positive sequence ``lam_j`` with
  prefix sums ``L(k) = sum_{j<=k} 1/lam_j``, computed on demand.
* :class:`SchrammFamily` -- an ordered family of increasing convex functions
  ``phi_j`` with partial sums ``Phi_k`` and numeric inverses.
* :class:`GaugePair` -- an exponent ladder ``q_n`` together with a scale
  ladder ``delta_n``.

All three are immutable after construction and safe for concurrent reads:
a weight sequence grows its tables when a read needs a longer prefix and
swaps them in as one attribute, and the values never change. A Schramm
family caches its per-rank parameters (lam_j, or (c_j, e_j) for explicit
terms) the same way: :meth:`SchrammFamily.rank_sum` reads one list and, when
a sum needs more ranks, builds a longer one and swaps it in.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HorizonError, RangeError, ValidationError

DEFAULT_K_MAX = 1 << 20
DEFAULT_N_MAX = 64

#: absolute x-tolerance for bisection inverses
BISECT_X_TOL = 1e-12
#: relative residual tolerance guaranteed by partial inverses
INVERSE_TOL = 1e-9
#: k values bisected together; bounds the bisection's temporaries
BISECT_CHUNK = 1 << 16

_WEIGHT_KINDS = ("constant", "harmonic", "power", "log", "explicit")


class WeightSequence:
    """A nondecreasing positive weight sequence with prefix sums.

    Weights and prefix sums are computed on demand: the tables hold the
    longest prefix asked for so far (at least doubling on each growth, up
    to ``k_max``), so a sequence costs nothing until it is read and never
    more than the prefix its readers use.

    Built-in kinds diverge (``sum 1/lam_j = inf``) by construction; for
    ``explicit`` lists divergence cannot be checked and is flagged as
    asserted by the user.
    """

    def __init__(self, kind, *, alpha=None, value=1.0, terms=None,
                 k_max=DEFAULT_K_MAX):
        if kind not in _WEIGHT_KINDS:
            raise ValidationError(f"unknown weight sequence kind {kind!r}")
        if k_max < 1:
            raise ValidationError("k_max must be positive")
        self.kind = kind
        self.alpha = alpha
        self.value = value
        self.k_max = int(k_max)
        self.terms = None
        # the built-in formulas are positive and nondecreasing; only the
        # parameters and an explicit list can break that
        if kind == "constant" and not value > 0:
            raise ValidationError("constant weight must be positive")
        if kind == "power" and (alpha is None or not 0 < alpha <= 1):
            raise ValidationError("power kind needs 0 < alpha <= 1")
        if kind == "explicit":
            if not terms:
                raise ValidationError("explicit kind needs a nonempty list")
            self.terms = tuple(float(t) for t in terms)
            # extension by the last value keeps monotonicity
            head = np.array(self.terms[:self.k_max])
            if not np.all(head > 0):
                raise ValidationError("weights must be positive")
            if np.any(np.diff(head) < -1e-15 * head[:-1]):
                raise ValidationError("weights must be nondecreasing")
        # (lam, prefix) in one attribute, so readers never see them at
        # different lengths
        self._tables = (np.empty(0), np.empty(0))

    def _formula(self, n):
        """``lam_1..lam_n`` from the kind's formula."""
        if self.kind == "constant":
            return np.full(n, float(self.value))
        if self.kind == "explicit":
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

    def _upto(self, k):
        """The read-only ``(lam, prefix)`` tables, holding index ``k``."""
        if not 1 <= k <= self.k_max:
            raise HorizonError(f"index {k} outside horizon 1..{self.k_max}")
        tables = self._tables
        if k > len(tables[0]):
            lam = self._formula(min(self.k_max, max(k, 2 * len(tables[0]))))
            tables = (lam, np.cumsum(1.0 / lam))
            for t in tables:
                t.setflags(write=False)
            self._tables = tables
        return tables

    @property
    def divergence(self):
        return "asserted-by-user" if self.kind == "explicit" else "built-in"

    def weight(self, j):
        """Return ``lam_j`` (1-based)."""
        return self._upto(j)[0].item(j - 1)

    def weights(self, k):
        """First ``k`` weights as a read-only array."""
        return self._upto(k)[0][:k]

    def prefix_sum(self, k):
        """Return ``L(k) = sum_{j=1}^{k} 1/lam_j``."""
        return self._upto(k)[1].item(k - 1)

    def prefix_sums(self, k):
        """``L(1..k)`` as a read-only array."""
        return self._upto(k)[1][:k]

    def to_config(self):
        cfg = {"kind": self.kind, "k_max": self.k_max}
        if self.kind == "power":
            cfg["alpha"] = self.alpha
        elif self.kind == "constant":
            cfg["value"] = self.value
        elif self.kind == "explicit":
            cfg["terms"] = list(self.terms)
        return cfg

    @classmethod
    def from_config(cls, cfg):
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
            if p is None or p < 1:
                raise ValidationError("power base needs p >= 1")
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
    """

    def __init__(self, kind, *, base=None, weights=None, terms=None,
                 k_max=None):
        #: the gain every rank shares when phi_j does not depend on j, else None
        self.rank_free = None
        #: rank-free gain of the witness-producing lower-bound DPs
        self.surrogate = lambda x: x
        # lam_j or (c_j, e_j) per rank for rank_sum, grown on demand. Each kind
        # picks its per-rank formula once below, with scalar ** (libm pow):
        # numpy's array power can differ in the last bit
        self._ranks = []
        if kind == "scaled":
            if base is None or weights is None:
                raise ValidationError("scaled kind needs base and weights")
            self.base = base if isinstance(base, ConvexBase) else ConvexBase.from_config(base)
            self.weights = weights
            self.k_max = weights.k_max if k_max is None else int(k_max)
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
            if weights.kind == "constant" or (
                    weights.kind == "explicit"
                    and len(set(weights.terms[:weights.k_max])) == 1):
                base, c = self.surrogate, 1.0 / weights.weight(1)
                self.rank_free = lambda x: c * base(x)
        elif kind == "explicit":
            if not terms:
                raise ValidationError("explicit kind needs a nonempty list")
            self.terms = tuple((float(c), float(e)) for c, e in terms)
            for c, e in self.terms:
                if c <= 0 or e < 1:
                    raise ValidationError("explicit terms need coef > 0, exponent >= 1")
            # phi_{j+1} / phi_j = (c_{j+1} / c_j) x^(e_{j+1} - e_j): pairs that
            # break phi_{j+1} <= phi_j at every scale are rejected here; a
            # rising exponent holds up to a crossing and is not checked
            for j, ((c, e), (c1, e1)) in enumerate(zip(self.terms, self.terms[1:]), 1):
                if e1 < e or (e1 == e and c1 > c):
                    where = "near 0" if e1 < e else "for every x > 0"
                    raise ValidationError(f"explicit terms {j} and {j + 1}: "
                                          f"phi_{j + 1} > phi_{j} {where}")
            self.base = None
            self.weights = None
            self.k_max = DEFAULT_K_MAX if k_max is None else int(k_max)
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
        ranks = self._ranks
        if len(xs) > len(ranks):
            if len(xs) > self.k_max:
                raise HorizonError(
                    f"index {self.k_max + 1} outside horizon 1..{self.k_max}")
            ranks = self._ranks = self._rank_terms(len(xs))
        try:
            return self._sum(xs, ranks)
        except OverflowError:  # a gain past the largest float
            return math.inf

    def _check_horizon(self, ks):
        bad = (ks < 1) | (ks > self.k_max)
        if bad.any():
            raise HorizonError(f"index {ks[bad][0]} outside horizon 1..{self.k_max}")

    def partial_sum(self, k, x):
        """Evaluate Phi_k(x) = sum_{j<=k} phi_j(x); ``k`` and ``x`` broadcast.

        Terms past k add an exact 0.0, so an array k gives per element the
        same float as a scalar k.
        """
        k = np.asarray(k)
        self._check_horizon(k)
        if self.kind == "scaled":
            total = self.base(x) * self.weights.prefix_sums(int(k.max()))[k - 1]
        else:
            total = 0.0
            for j, (c, e) in enumerate(self.terms, 1):
                total = total + np.where(k >= j, c * np.power(x, e), 0.0)
            # indices past the list all share the last (coef, exponent) pair,
            # which the loop leaves in (c, e)
            rest = k - len(self.terms)
            total = total + np.where(rest > 0, rest * c * np.power(x, e), 0.0)
        return total if total.ndim else float(total)

    def partial_inverse(self, k, y, *, method="auto"):
        """Return x with ``|Phi_k(x) - y| <= INVERSE_TOL * max(1, y)``; see
        :meth:`partial_inverse_many`."""
        return float(self.partial_inverse_many([k], y, method=method)[0])

    def partial_inverse_many(self, ks, y, *, method="auto"):
        """``Phi_k^{-1}(y)`` over an integer array of k values.

        Scaled families invert analytically through the base unless
        ``method="bisect"``. The generic route brackets by doubling from 1 and
        bisects (Phi_k is convex and strictly increasing, so bisection is
        robust and derivative-free), all k at once in chunks of
        ``BISECT_CHUNK``; each element stops at the residual tolerance or at
        a bracket of width ``BISECT_X_TOL * max(1, hi)``.
        """
        if y < 0:
            raise ValidationError("inverse target must be nonnegative")
        ks = np.asarray(ks, dtype=int)
        self._check_horizon(ks)
        if y == 0:
            return np.zeros(len(ks))
        if method == "auto" and self.kind == "scaled":
            pref = self.weights.prefix_sums(int(ks.max()))
            return self.base.inverse(y / pref[ks - 1])
        return np.concatenate([self._bisect(ks[i:i + BISECT_CHUNK], y)
                               for i in range(0, len(ks), BISECT_CHUNK)])

    def _bisect(self, ks, y):
        hi = np.ones(len(ks))
        for _ in range(201):
            low = self.partial_sum(ks, hi) < y
            if not low.any():
                break
            hi[low] *= 2.0
        else:
            raise RangeError(f"Phi_{ks[low][0]} stays below {y} on search range")
        x = np.empty(len(ks))
        idx = np.arange(len(ks))
        lo = np.zeros(len(ks))
        # the width stop always ends it: BISECT_X_TOL is far above one ulp
        while len(idx):
            mid = 0.5 * (lo + hi)
            val = self.partial_sum(ks, mid)
            # a residual hit collapses the bracket onto mid
            hit = np.abs(val - y) <= INVERSE_TOL * max(1.0, y)
            lo = np.where((val < y) | hit, mid, lo)
            hi = np.where((val < y) & ~hit, hi, mid)
            done = hi - lo <= BISECT_X_TOL * np.maximum(1.0, hi)
            x[idx[done]] = 0.5 * (lo[done] + hi[done])
            ks, lo, hi, idx = ks[~done], lo[~done], hi[~done], idx[~done]
        return x

    def to_config(self):
        if self.kind == "scaled":
            return {"kind": "scaled", "base": self.base.to_config(),
                    "weights": self.weights.to_config()}
        return {"kind": "explicit", "terms": [list(t) for t in self.terms],
                "k_max": self.k_max}

    @classmethod
    def from_config(cls, cfg):
        cfg = dict(cfg)
        kind = cfg.pop("kind")
        if kind == "scaled":
            return cls("scaled", base=cfg["base"],
                       weights=WeightSequence.from_config(cfg["weights"]))
        if kind == "power":
            # convenience spelling: {"kind": "power", "p": 2, "weights": {...}}
            return cls.power(cfg["p"], WeightSequence.from_config(cfg["weights"]))
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
        qn = np.asarray(qn, dtype=float)
        deltas = np.asarray(deltas, dtype=float)
        if qn.shape != deltas.shape or qn.ndim != 1 or len(qn) < 1:
            raise ValidationError("q_n and delta_n ladders must match in length")
        if np.any(qn < 1) or np.any(np.diff(qn) < 0):
            raise ValidationError("need 1 <= q_n nondecreasing")
        if np.any(deltas < 2) or np.any(np.diff(deltas) < 0):
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
        n = np.arange(1, n_max + 1, dtype=float)
        if qn_kind == "linear":
            qn, q_limit = n, math.inf
        elif qn_kind == "const":
            if q is None:
                raise ValidationError("const qn ladder needs q")
            qn, q_limit = np.full(n_max, float(q)), float(q)
        elif qn_kind == "to":
            if q is None or q <= 1:
                raise ValidationError("'to' qn ladder needs q > 1")
            qn, q_limit = q - (q - 1.0) / n, float(q)
        elif qn_kind == "list":
            qn = np.asarray(qn_list, dtype=float)
            n_max = len(qn)
            q_limit = float(qn[-1])
        else:
            raise ValidationError(f"unknown qn ladder kind {qn_kind!r}")

        if delta_kind == "pow2":
            deltas = 2.0 ** np.arange(1, n_max + 1)
        elif delta_kind == "list":
            deltas = np.asarray(delta_list, dtype=float)
        else:
            raise ValidationError(f"unknown delta ladder kind {delta_kind!r}")
        if len(deltas) < n_max:
            raise ValidationError("delta ladder shorter than qn ladder")
        return cls(qn[:n_max], deltas[:n_max], q_limit=q_limit)

    def level(self, n):
        """Return (q_n, delta_n), 1-based."""
        if not 1 <= n <= self.n_max:
            raise HorizonError(f"level {n} outside horizon 1..{self.n_max}")
        return float(self.qn[n - 1]), float(self.deltas[n - 1])

    def __repr__(self):
        return (f"GaugePair(n_max={self.n_max}, q_limit={self.q_limit}, "
                f"delta_1={self.deltas[0]})")
