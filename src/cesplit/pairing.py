"""Cantor pairing codes used for indices and requirement ordering."""

from __future__ import annotations

from math import isqrt


def pair(a: int, b: int) -> int:
    """Bijection N x N -> N, strictly increasing in each argument."""
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(n: int) -> tuple[int, int]:
    d = (isqrt(8 * n + 1) - 1) // 2
    b = n - d * (d + 1) // 2
    return d - b, b


def balance_code(e: int, i: int, k: int) -> int:
    """Priority code for two-sided counting requirements.

    Orders by (e, k) first and the side last, so for one index the easiest
    unmet targets alternate sides: (e,0,1) < (e,1,1) < (e,0,2) < (e,1,2).
    """
    return pair(pair(e, k), i)
