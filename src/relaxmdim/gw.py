"""Asymptotic constants for the relaxed dimension of critical branching trees.

For an offspring distribution xi the limit of MD_{2r}/n is c_r = l_r - e_r,
where the auxiliary probabilities are tied together by one generating-function
recursion:

    d_r = P(tree height < r)                 d_0 = 0,  d_r = pgf(d_{r-1})
    l_r = P(tree height = r)                 l_0 = p_0,
                                             l_r = pgf(d_{r-1} + l_{r-1}) - d_r
    s_r = P(r-fold down-stem is a path)      s_r = l_r / (1 - pgf'(d_r))
    e_r = P(down-stemmed root keeps >= 2     e_r = 1 - pgf(1 - s_r) - s_r + l_r
          children, one a path branch)

Evaluated either from a truncated pmf (:func:`gw_sequence`) or by the closed
forms available for the unit-mean Poisson offspring
(:func:`poisson_closed_form`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TextIO

import numpy as np


#: The largest tail mass a truncated pmf may discard: :meth:`OffspringDistribution.poisson`
#: and :meth:`~OffspringDistribution.geometric` stop once the tail left is
#: below it, and a pmf whose mass falls short of 1 by more is refused.
TAIL_BOUND = 1e-12


@dataclass(frozen=True)
class OffspringDistribution:
    """Truncated offspring pmf p_0..p_J, discarding a tail of at most
    ``TAIL_BOUND``."""

    pmf: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.pmf:
            raise ValueError("pmf must be nonempty")
        if any(p < 0 for p in self.pmf):
            raise ValueError("pmf values must be nonnegative")
        total = sum(self.pmf)
        if not (1.0 - TAIL_BOUND - 1e-9 <= total <= 1.0 + 1e-9):
            raise ValueError(
                f"pmf mass {total} outside [1 - {TAIL_BOUND}, 1]"
            )

    @cached_property
    def mean(self) -> float:
        return sum(j * p for j, p in enumerate(self.pmf))

    def pgf(self, x: float) -> float:
        """Probability generating function, Horner-evaluated from the top."""
        acc = 0.0
        for p in reversed(self.pmf):
            acc = acc * x + p
        return acc

    def pgf_prime(self, x: float) -> float:
        acc = 0.0
        for j in range(len(self.pmf) - 1, 0, -1):
            acc = acc * x + j * self.pmf[j]
        return acc

    @classmethod
    def poisson(cls, lam: float = 1.0) -> "OffspringDistribution":
        """Poisson(lam) truncated where the remaining tail mass drops below
        ``TAIL_BOUND``."""
        if not lam > 0:
            raise ValueError("lam must be positive")
        probs = [math.exp(-lam)]
        if probs[0] == 0.0:  # lam = inf, or too large for a float p_0
            raise ValueError(f"lam must be positive with exp(-lam) > 0, but lam {lam} is too large")
        total = probs[0]
        j = 0
        while 1.0 - total > TAIL_BOUND and j < 10_000:
            j += 1
            probs.append(probs[-1] * lam / j)
            total += probs[-1]
        return cls(tuple(probs))

    @classmethod
    def geometric(cls, p: float) -> "OffspringDistribution":
        """Geometric on {0, 1, ...} with success probability ``p``; the mean is
        (1-p)/p, so p = 1/2 is critical."""
        if not 0 < p < 1:
            raise ValueError("p must be in (0, 1)")
        probs = [p]
        total = p
        while 1.0 - total > TAIL_BOUND and len(probs) < 100_000:
            probs.append(probs[-1] * (1.0 - p))
            total += probs[-1]
        return cls(tuple(probs))

    @classmethod
    def from_pmf(cls, values) -> "OffspringDistribution":
        return cls(tuple(float(v) for v in values))


@dataclass(frozen=True)
class GWConstants:
    """Per-r records of the recursion; index r runs 0..r_max."""

    d: tuple[float, ...]
    l: tuple[float, ...]
    s: tuple[float, ...]
    e: tuple[float, ...]
    c: tuple[float, ...]

    @property
    def r_max(self) -> int:
        return len(self.c) - 1

    def rows(self) -> list[tuple[int, float, float, float, float, float]]:
        return [
            (r, self.d[r], self.l[r], self.s[r], self.e[r], self.c[r])
            for r in range(len(self.c))
        ]

    def write_csv(self, out: TextIO) -> None:
        out.write("r,d,l,s,e,c\n")
        for row in self.rows():
            out.write("{},{!r},{!r},{!r},{!r},{!r}\n".format(*row))


def _warn_if_not_critical(xi: OffspringDistribution) -> None:
    if abs(xi.mean - 1.0) > 1e-6:
        warnings.warn(
            f"offspring mean {xi.mean:.6f} != 1: the recursions are still "
            "well-defined but the limit interpretation assumes criticality",
            stacklevel=3,
        )


def gw_sequence(xi: OffspringDistribution, r_max: int) -> GWConstants:
    """Evaluate the recursion for r = 0..r_max from the truncated pmf."""
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    _warn_if_not_critical(xi)
    d = [0.0]
    l = [xi.pmf[0]]
    for r in range(1, r_max + 1):
        d.append(xi.pgf(d[r - 1]))
        l.append(xi.pgf(d[r - 1] + l[r - 1]) - d[r])
    s = []
    e = []
    c = []
    for r in range(r_max + 1):
        denom = 1.0 - xi.pgf_prime(d[r])
        if denom <= 0.0:
            raise ValueError(
                f"singular denominator 1 - pgf'(d_{r}) = {denom}; "
                "the path-probability recursion does not apply"
            )
        s_r = l[r] / denom
        e_r = 1.0 - xi.pgf(1.0 - s_r) - s_r + l[r]
        s.append(s_r)
        e.append(e_r)
        c.append(l[r] - e_r)
    return GWConstants(tuple(d), tuple(l), tuple(s), tuple(e), tuple(c))


def poisson_closed_form(r_max: int) -> GWConstants:
    """Closed-form evaluation for Poisson offspring with unit mean."""
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    d = [0.0]
    l = [math.exp(-1.0)]
    for r in range(1, r_max + 1):
        d.append(math.exp(d[r - 1] - 1.0))
        l.append(d[r] * (math.exp(l[r - 1]) - 1.0))
    s = []
    e = []
    c = []
    for r in range(r_max + 1):
        s_r = l[r] / (1.0 - math.exp(d[r] - 1.0))
        s.append(s_r)
        e.append(1.0 - math.exp(-s_r) - (s_r - l[r]))
        c.append(s_r + math.exp(-s_r) - 1.0)
    return GWConstants(tuple(d), tuple(l), tuple(s), tuple(e), tuple(c))


def monte_carlo_cr(
    xi: OffspringDistribution, r: int, n: int, reps: int, seed: int
) -> tuple[float, float]:
    """Estimate the limit constant by sampling size-n conditioned trees.

    Replicate i uses the derived seed ``seed + i``. Returns the sample mean of
    MD_{2r}/n and its standard error.
    """
    from .generators import gw_tree_conditioned
    from .trees import exact_tree_md

    if reps < 2:
        raise ValueError("need at least two replicates for a standard error")
    values = []
    for i in range(reps):
        tree = gw_tree_conditioned(n, xi, seed + i)
        values.append(exact_tree_md(tree.graph, 2 * r).md / n)
    arr = np.asarray(values)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(reps))
