"""Independent brute-force oracles used to check the production engine.

Everything here enumerates interval collections explicitly and never
shares code with the package's DP / label-search paths.
"""

import math

_CACHE = {}


def all_collections(m, min_len=1):
    """Every ordered list of nonoverlapping (a, b) grid intervals with
    b - a >= min_len, including the empty list. Endpoint sharing allowed."""
    key = (m, min_len)
    if key in _CACHE:
        return _CACHE[key]
    out = []

    def extend(pos, acc):
        out.append(tuple(acc))
        for a in range(pos, m - min_len + 1):
            for b in range(a + min_len, m + 1):
                acc.append((a, b))
                extend(b, acc)
                acc.pop()

    extend(0, [])
    _CACHE[key] = out
    return out


def _incs(values, pairs):
    return sorted((abs(values[b] - values[a]) for a, b in pairs), reverse=True)


def oracle_modulus(values, n, min_len=1):
    m = len(values) - 1
    best = 0.0
    for pairs in all_collections(m, min_len):
        if len(pairs) > n:
            continue
        best = max(best, sum(_incs(values, pairs)))
    return best


def dp_modulus(values, n, min_len=1):
    """Largest total increment over at most ``n`` nonoverlapping intervals
    of grid length >= ``min_len``, by the textbook recursion in plain
    Python: best_k(i) = max(best_k(i + 1), max_b |v_b - v_i| + best_{k-1}(b)).
    O(m^2 n), so it reaches sizes that ``oracle_modulus`` cannot."""
    m = len(values) - 1
    prev = [0.0] * (m + 2)
    for _ in range(n):
        cur = [0.0] * (m + 2)
        for i in range(m - min_len, -1, -1):
            take = max(abs(values[b] - values[i]) + prev[b]
                       for b in range(i + min_len, m + 1))
            cur[i] = max(cur[i + 1], take)
        prev = cur
    return prev[0]


def oracle_unweighted_q(values, q, s_max, min_len=1):
    m = len(values) - 1
    best = 0.0
    for pairs in all_collections(m, min_len):
        if len(pairs) > s_max:
            continue
        best = max(best, sum(x ** q for x in _incs(values, pairs)))
    return best ** (1.0 / q)


def oracle_weighted(values, lam, p, min_len=1):
    """lam: plain list of weights lam_1, lam_2, ... (long enough)."""
    m = len(values) - 1
    best = 0.0
    for pairs in all_collections(m, min_len):
        xs = _incs(values, pairs)
        best = max(best, sum(x ** p / lam[j] for j, x in enumerate(xs)))
    return best ** (1.0 / p)


def oracle_schramm(values, phis, min_len=1):
    """phis: list of callables phi_1, phi_2, ... (long enough)."""
    m = len(values) - 1
    best = 0.0
    for pairs in all_collections(m, min_len):
        xs = _incs(values, pairs)
        best = max(best, sum(phis[j](x) for j, x in enumerate(xs)))
    return best


def oracle_gauged(values, lam, qn, deltas, n_cap):
    m = len(values) - 1
    best = 0.0
    for n in range(1, n_cap + 1):
        q = qn[n - 1]
        min_len = max(1, math.ceil(m / deltas[n - 1]))
        if min_len > m:
            continue
        inner = 0.0
        for pairs in all_collections(m, min_len):
            xs = _incs(values, pairs)
            inner = max(inner, sum(x ** q / lam[j] for j, x in enumerate(xs)))
        best = max(best, inner ** (1.0 / q))
    return best


def best_rank_assignment(xs, gains):
    """Max of sum gains[perm[j]](x_j) over all rank permutations."""
    import itertools
    n = len(xs)
    best = -math.inf
    for perm in itertools.permutations(range(n)):
        best = max(best, sum(gains[perm[j]](xs[j]) for j in range(n)))
    return best
