"""Exact algebra of polynomial functionals of i.i.d. standard normals.

Random variables are polynomials in finitely many coordinates xi_1..xi_m
(sparse multi-index representation). Expectations use the Gaussian moment
formula E[xi^p] = (p-1)!! for even p and 0 for odd p, so every identity in
the stochastic-integration layer is checkable to round-off instead of by
Monte Carlo. The Malliavin derivative of a polynomial is its formal
gradient, valued in coefficient vectors against the field's RKHS basis.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from itertools import zip_longest
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatchError
from .spectral import RkhsElement

__all__ = [
    "ChaosPolynomial",
    "HmuValuedPolynomial",
    "expectation",
    "malliavin_derivative",
    "directional_derivative",
    "inner_hmu",
    "random_polynomial",
    "parse_polynomial",
    "format_polynomial",
]


def _trim(exponents: Iterable[int]) -> tuple[int, ...]:
    """Canonical multi-index: trailing zeros removed."""
    e = tuple(int(p) for p in exponents)
    while e and e[-1] == 0:
        e = e[:-1]
    return e


@dataclass(frozen=True)
class ChaosPolynomial:
    """Polynomial in xi_1..xi_m as a map multi-index -> coefficient.

    Multi-indices are stored trimmed (no trailing zeros) and carry no
    zero coefficients; ``num_vars`` may exceed the largest variable
    actually used. Instances are immutable; all arithmetic returns new
    polynomials and auto-extends the variable count to the larger operand.
    """

    terms: Mapping[tuple[int, ...], float]
    num_vars: int

    def __post_init__(self):
        clean = {}
        width = 0
        for key, coeff in self.terms.items():
            key = _trim(key)
            coeff = float(coeff)
            if any(p < 0 for p in key):
                raise ValueError(f"negative exponent in multi-index {key}")
            if coeff != 0.0:
                clean[key] = clean.get(key, 0.0) + coeff
                width = max(width, len(key))
        clean = {k: c for k, c in clean.items() if c != 0.0}
        object.__setattr__(self, "terms", MappingProxyType(clean))
        object.__setattr__(self, "num_vars", max(int(self.num_vars), width))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int = 0) -> "ChaosPolynomial":
        return cls({}, num_vars)

    @classmethod
    def constant(cls, value: float, num_vars: int = 0) -> "ChaosPolynomial":
        return cls({(): float(value)}, num_vars)

    @classmethod
    def variable(cls, index: int, num_vars: int | None = None) -> "ChaosPolynomial":
        """The coordinate xi_{index+1} (0-based index)."""
        if index < 0:
            raise ValueError(f"variable index must be >= 0, got {index}")
        key = (0,) * index + (1,)
        return cls({key: 1.0}, num_vars if num_vars is not None else index + 1)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "ChaosPolynomial":
        other = _coerce(other)
        return _sum((self, other), max(self.num_vars, other.num_vars))

    __radd__ = __add__

    def __neg__(self) -> "ChaosPolynomial":
        return ChaosPolynomial({k: -c for k, c in self.terms.items()}, self.num_vars)

    def __sub__(self, other) -> "ChaosPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "ChaosPolynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "ChaosPolynomial":
        other = _coerce(other)
        out: dict[tuple[int, ...], float] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip_longest(k1, k2, fillvalue=0))
                out[key] = out.get(key, 0.0) + c1 * c2
        return ChaosPolynomial(out, max(self.num_vars, other.num_vars))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ChaosPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ChaosPolynomial.constant(1.0, self.num_vars)
        for _ in range(exponent):
            result = result * self
        return result

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(k) for k in self.terms)

    def coefficient(self, exponents: Iterable[int]) -> float:
        return self.terms.get(_trim(exponents), 0.0)

    def partial(self, index: int) -> "ChaosPolynomial":
        """Formal partial derivative with respect to xi_{index+1}."""
        # lowering one exponent maps distinct keys to distinct keys: nothing to merge
        out = {key[:index] + (key[index] - 1,) + key[index + 1:]: coeff * key[index]
               for key, coeff in self.terms.items() if index < len(key) and key[index]}
        return ChaosPolynomial(out, self.num_vars)

    def __call__(self, xi) -> float:
        """Evaluate at a noise vector (length >= every used variable)."""
        xi = np.asarray(xi, dtype=float).ravel()
        total = 0.0
        for key, coeff in self.terms.items():
            if len(key) > xi.size:
                raise DimensionMismatchError(
                    f"polynomial uses {len(key)} variables but noise has {xi.size}"
                )
            value = coeff
            for i, p in enumerate(key):
                if p:
                    value *= xi[i] ** p
            total += value
        return float(total)

    def __repr__(self) -> str:
        return f"ChaosPolynomial({format_polynomial(self)!r}, num_vars={self.num_vars})"


def _sum(polys: Iterable[ChaosPolynomial], num_vars: int) -> ChaosPolynomial:
    """Sum of polynomials, merging their terms in one dict pass."""
    out: dict[tuple[int, ...], float] = {}
    for P in polys:
        for key, coeff in P.terms.items():
            out[key] = out.get(key, 0.0) + coeff
    return ChaosPolynomial(out, num_vars)


def _coerce(value) -> ChaosPolynomial:
    if isinstance(value, ChaosPolynomial):
        return value
    if isinstance(value, (int, float)):
        return ChaosPolynomial.constant(float(value))
    raise TypeError(f"cannot interpret {type(value).__name__} as a polynomial")


@dataclass(frozen=True)
class HmuValuedPolynomial:
    """Random element of the RKHS: one polynomial coefficient per basis
    direction. Also serves as the integrand type u = sum_k P_k Phi_k."""

    components: tuple[ChaosPolynomial, ...]

    def __post_init__(self):
        comps = tuple(_coerce(p) for p in self.components)
        width = max((p.num_vars for p in comps), default=0)
        comps = tuple(ChaosPolynomial(p.terms, width) for p in comps)
        object.__setattr__(self, "components", comps)

    @property
    def num_vars(self) -> int:
        return self.components[0].num_vars if self.components else 0

    def __len__(self) -> int:
        return len(self.components)


def _double_factorial(p: int) -> float:
    """p!! as a float; stops at inf, so a huge p takes a few hundred steps."""
    out = 1.0
    while p > 1 and out < math.inf:
        out *= min(p, sys.float_info.max)   # an int past it cannot become a float
        p -= 2
    return out


def expectation(P: ChaosPolynomial) -> float:
    """Gaussian expectation: E[prod xi_k^{p_k}] = prod (p_k - 1)!! over even p_k."""
    total = 0.0
    for key, coeff in P.terms.items():
        if any(p % 2 for p in key):
            continue
        total += coeff * math.prod(_double_factorial(p - 1) for p in key)
    return total


def malliavin_derivative(P: ChaosPolynomial) -> HmuValuedPolynomial:
    """Formal gradient: component k is dP/dxi_k, a vector against the
    RKHS basis directions."""
    return HmuValuedPolynomial(tuple(P.partial(k) for k in range(P.num_vars)))


def directional_derivative(P: ChaosPolynomial, direction) -> ChaosPolynomial:
    """Derivative of P along an RKHS element: sum_k a_k dP/dxi_k.

    Directions shorter than the variable count are zero-padded; entries
    beyond it differentiate nothing and are ignored.
    """
    coeffs = direction.coeffs if isinstance(direction, RkhsElement) else np.asarray(direction, dtype=float).ravel()
    return _sum((float(a) * P.partial(k) for k, a in enumerate(coeffs[: P.num_vars]) if a != 0.0),
                P.num_vars)


def inner_hmu(u: HmuValuedPolynomial, v: HmuValuedPolynomial) -> ChaosPolynomial:
    """Pointwise-in-omega coefficient inner product sum_k u_k v_k."""
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"component counts differ: {len(u)} vs {len(v)}"
        )
    return _sum((a * b for a, b in zip(u.components, v.components)),
                max(u.num_vars, v.num_vars))


def random_polynomial(
    rng: np.random.Generator,
    num_vars: int,
    max_degree: int,
    n_terms: int,
) -> ChaosPolynomial:
    """Sparse random polynomial with small coefficients.

    Used by the verification batteries: coefficients are kept O(1) so the
    exact identities hold to ~1e-12 after floating cancellation.
    """
    terms: dict[tuple[int, ...], float] = {}
    for _ in range(n_terms):
        key = [0] * num_vars
        budget = int(rng.integers(0, max_degree + 1))
        for _ in range(budget):
            key[int(rng.integers(0, num_vars))] += 1
        coeff = round(float(rng.uniform(-2.0, 2.0)), 6)
        key = tuple(key)
        terms[key] = terms.get(key, 0.0) + coeff
    return ChaosPolynomial(terms, num_vars)


# -- textual polynomial format ------------------------------------------

_NUMBER = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"

#: the signs before a term, whitespace allowed between them
_SIGNS = re.compile(r"(?:\s*[+-])*")

#: one factor of a term, a number or x<k>[^<number>], and a '*' if another follows
_FACTOR = re.compile(
    rf"\s*(?:(?P<number>{_NUMBER})|x(?P<var>\d+)(?:\s*\^\s*(?P<power>{_NUMBER}))?)(?P<times>\s*\*)?"
)


def parse_polynomial(text: str, num_vars: int | None = None) -> ChaosPolynomial:
    """Parse the textual format, e.g. ``2*x1^2*x2 - 3*x3``.

    Variables are x1..xm (1-based); terms are '*'-joined products of
    numeric coefficients and powers like ``x2^3``, combined with + and -.
    ``num_vars`` fixes the formal variable count (error if exceeded).

    Raises
    ------
    ValueError
        If the text is empty or does not follow the grammar, a variable
        is x0, an exponent is not a nonnegative integer, or a coefficient
        or exponent is not finite (``1e999*x1``, ``x1^1e400``).
    DimensionMismatchError
        If the polynomial uses more than ``num_vars`` variables.
    """
    body = text.rstrip()
    if not body:
        raise ValueError("empty polynomial text")
    terms: dict[tuple[int, ...], float] = {}
    width = pos = 0
    while pos < len(body):
        signs = _SIGNS.match(body, pos)
        if pos and not signs[0].strip():
            raise ValueError(f"expected '+' or '-' before {body[pos:pos + 20]!r} in {text!r}")
        pos = signs.end()
        coeff = -1.0 if signs[0].count("-") % 2 else 1.0
        exps: list[int] = []
        while True:
            factor = _FACTOR.match(body, pos)
            if factor is None:
                raise ValueError(f"expected a number or variable at {body[pos:pos + 20]!r} in {text!r}")
            pos = factor.end()
            if factor["number"]:
                coeff *= float(factor["number"])
            else:
                index = int(factor["var"]) - 1
                if index < 0:
                    raise ValueError(f"variables are 1-based in {text!r}")
                if num_vars is not None and index >= num_vars:   # before padding to it
                    raise DimensionMismatchError(
                        f"variable x{index + 1} in {text!r} exceeds the limit of {num_vars} variables")
                power = float(factor["power"] or 1)
                if not power.is_integer():
                    raise ValueError(f"exponent must be a finite integer, got "
                                     f"{factor['power']!r} in {text!r}")
                exps += [0] * (index + 1 - len(exps))
                exps[index] += int(power)
            if not factor["times"]:
                break
        width = max(width, len(exps))
        key = _trim(exps)
        # a key whose sum cancels is dropped, as by a run of additions, so a
        # later term appends it again
        terms[key] = terms.get(key, 0.0) + coeff
        if not terms[key]:
            del terms[key]
    if not all(map(math.isfinite, terms.values())):
        raise ValueError(f"non-finite coefficient in {text!r}")
    return ChaosPolynomial(terms, width if num_vars is None else num_vars)


def _format_number(value: float) -> str:
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".12g")


def format_polynomial(P: ChaosPolynomial) -> str:
    """Render in the textual format; inverse of parse_polynomial."""
    if not P.terms:
        return "0"
    keys = sorted(P.terms, key=lambda k: (-sum(k), tuple(-p for p in k)))
    parts = []
    for key in keys:
        coeff = P.terms[key]
        factors = [f"x{i + 1}" + (f"^{p}" if p > 1 else "") for i, p in enumerate(key) if p > 0]
        if abs(coeff) != 1.0 or not factors:
            factors.insert(0, _format_number(abs(coeff)))
        parts.append(("- " if coeff < 0 else "+ ") + "*".join(factors))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
