"""Wilcoxon signed-rank test and paired sample t-test.

Both tests compare per-query runtimes of two strategies on the same
workload.  The Wilcoxon p-value is exact (full sign-assignment
distribution) for n <= 25 and a tie-corrected normal approximation with
continuity correction beyond that; the t-test p-value comes from the
t-distribution via the continued-fraction regularized incomplete beta.
All reported p-values are two-sided.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import SmashError


@dataclass
class PairedSample:
    a: list
    b: list

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise SmashError(
                f"paired sample lengths differ: {len(self.a)} vs {len(self.b)}"
            )

    def differences(self):
        return [float(x) - float(y) for x, y in zip(self.a, self.b)]


def average_ranks(values):
    """Ranks 1..n with tied values sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _exact_cdf(doubled_ranks, doubled_stat):
    """P(W <= stat) under random signs, as (favorable, total) counts."""
    counts = defaultdict(int)
    counts[0] = 1
    for r in doubled_ranks:
        nxt = defaultdict(int)
        for s, c in counts.items():
            nxt[s] += c
            nxt[s + r] += c
        counts = nxt
    favorable = sum(c for s, c in counts.items() if s <= doubled_stat)
    return favorable, 2 ** len(doubled_ranks)


def _normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def wilcoxon_signed_rank(sample: PairedSample):
    """(statistic, two-sided p); statistic = min(W+, W-) on average ranks."""
    diffs = [d for d in sample.differences() if d != 0.0]
    if not diffs:
        raise SmashError("all paired differences are zero")
    if len(diffs) < 2:
        raise SmashError("need >= 2 nonzero differences")
    n = len(diffs)
    ranks = average_ranks([abs(d) for d in diffs])
    w_plus = sum(r for d, r in zip(diffs, ranks) if d > 0)
    w_minus = sum(r for d, r in zip(diffs, ranks) if d < 0)
    stat = min(w_plus, w_minus)
    if n <= 25:
        # doubled average ranks are integers, enabling an exact tally
        doubled = [round(2 * r) for r in ranks]
        favorable, total = _exact_cdf(doubled, round(2 * stat + 1e-9))
        p = min(1.0, 2.0 * favorable / total)
        return stat, p
    mean = n * (n + 1) / 4.0
    tie_sizes = Counter(abs(d) for d in diffs).values()
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= sum(t**3 - t for t in tie_sizes) / 48.0
    z = (stat - mean + 0.5) / math.sqrt(var)
    return stat, min(1.0, 2.0 * _normal_cdf(z))


def _betacf(a, b, x, max_iter=300, eps=1e-14):
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_t_test(sample: PairedSample):
    """(t, two-sided p) with n - 1 degrees of freedom."""
    diffs = sample.differences()
    n = len(diffs)
    if n < 2:
        raise SmashError("need >= 2 pairs")
    mean = float(np.mean(diffs))
    s = float(np.std(diffs, ddof=1))
    if s == 0.0:
        raise SmashError("all differences identical; t undefined")
    t = mean * math.sqrt(n) / s
    nu = n - 1
    p = regularized_incomplete_beta(nu / 2.0, 0.5, nu / (nu + t * t))
    return t, min(1.0, p)
