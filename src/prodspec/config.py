"""Product specifications: which factors enter the product and how it is rescaled.

A product is described by a size n, a sign pattern (one entry per factor,
+1 for the factor itself, -1 for its inverse), and for truncated-unitary
factors the source dimensions the truncations are cut from.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass


@dataclass(frozen=True)
class SignPattern:
    """Exponent signs of the factors, one +1 or -1 per factor."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) == 0:
            raise ValueError("signs: empty pattern")
        for s in self.entries:
            if s not in (-1, 1):
                raise ValueError(f"signs: sign not +-1 (got {s!r})")
        object.__setattr__(self, "entries", tuple(int(s) for s in self.entries))

    @classmethod
    def parse(cls, text: str) -> "SignPattern":
        """Build from a string such as "-+-"."""
        table = {"+": 1, "-": -1}
        try:
            return cls(tuple(table[c] for c in text))
        except KeyError as exc:
            raise ValueError(f"signs: unexpected character {exc.args[0]!r}") from None

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def plus_count(self) -> int:
        return sum(1 for s in self.entries if s == 1)

    def __iter__(self):
        return iter(self.entries)

    def __str__(self):
        return "".join("+" if s == 1 else "-" for s in self.entries)


@dataclass(frozen=True)
class ProductSpec:
    """Product of n x n random factors and/or their inverses.

    With dims None every factor is a complex Gaussian matrix. Otherwise
    factor k is the top-left corner of a Haar unitary of size dims[k];
    every dims[k] must exceed n, otherwise the truncation has unit
    singular values and the radial surrogates are undefined.
    """

    n: int
    signs: SignPattern
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"n: must be a positive integer (got {self.n!r})")
        object.__setattr__(self, "n", int(self.n))
        if self.dims is None:
            return
        if len(self.dims) != self.signs.m:
            raise ValueError(
                f"dims: length {len(self.dims)} does not match {self.signs.m} signs"
            )
        for k, d in enumerate(self.dims):
            if not isinstance(d, numbers.Integral) or d <= self.n:
                raise ValueError(f"dims[{k}]: need an integer > n (got {d!r})")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def m(self) -> int:
        return self.signs.m

    @property
    def plus_count(self) -> int:
        return self.signs.plus_count

    @property
    def ratios(self) -> list[float] | None:
        """Per-factor q_k = n / (2 dims[k] - n), or None for Gaussian factors."""
        if self.dims is None:
            return None
        return [self.n / (2.0 * d - self.n) for d in self.dims]

    def log_scale(self) -> float:
        """log of the normalizing scale, kept in log form.

        The scale is n^(2p - m) for Gaussian factors and prod_k q_k^(sign_k)
        for truncations.
        """
        if self.dims is None:
            return sum(self.signs) * math.log(self.n)
        return sum(s * math.log(q) for s, q in zip(self.signs, self.ratios))


def GinibreProductSpec(n: int, signs: SignPattern) -> ProductSpec:
    """Product of n x n complex Gaussian factors and/or their inverses."""
    return ProductSpec(n, signs)


def HaarProductSpec(n: int, signs: SignPattern, dims) -> ProductSpec:
    """Product of n x n truncations of Haar unitaries and/or their inverses."""
    return ProductSpec(n, signs, tuple(dims))


@dataclass(frozen=True)
class ScalingPlan:
    """Power 1/gamma_n and scale applied to squared moduli before comparison."""

    gamma_n: float
    log_scale: float

    def __post_init__(self):
        if not (self.gamma_n > 0 and math.isfinite(self.gamma_n)):
            raise ValueError(f"gamma_n: must be finite and > 0 (got {self.gamma_n!r})")
        if not math.isfinite(self.log_scale):
            raise ValueError(f"log_scale: must be finite (got {self.log_scale!r})")

    @classmethod
    def for_spec(cls, spec: ProductSpec, gamma_n: float) -> "ScalingPlan":
        return cls(gamma_n=float(gamma_n), log_scale=spec.log_scale())


def resolve_gamma(token, m: int) -> float:
    """Turn a gamma setting into a number; "m" means the factor count."""
    if isinstance(token, str):
        if token.strip() == "m":
            return float(m)
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"gamma: expected a number or 'm' (got {token!r})") from None
    else:
        value = float(token)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"gamma: must be finite and > 0 (got {value!r})")
    return value
