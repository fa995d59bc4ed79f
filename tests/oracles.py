"""Closed forms that the tests check the package against, kept apart from
the package so that an oracle never shares code with what it checks."""

import math


def double_factorial(n: int) -> int:
    """n!! -- product of positive integers up to n with the parity of n;
    0!! = (-1)!! = 1, the empty product."""
    return math.prod(range(n, 0, -2))
