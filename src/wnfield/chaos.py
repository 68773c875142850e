"""Exact algebra of polynomial functionals of i.i.d. standard normals.

Random variables are polynomials in finitely many coordinates xi_1..xi_m
(sparse multi-index representation). Expectations use the Gaussian moment
formula E[xi^p] = (p-1)!! for even p and 0 for odd p, so every identity in
the stochastic-integration layer is checkable to round-off instead of by
Monte Carlo. The Malliavin derivative of a polynomial is its formal
gradient, valued in coefficient vectors against the field's RKHS basis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0.0) + coeff
        return ChaosPolynomial(out, max(self.num_vars, other.num_vars))

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
                width = max(len(k1), len(k2))
                key = tuple(
                    (k1[i] if i < len(k1) else 0) + (k2[i] if i < len(k2) else 0)
                    for i in range(width)
                )
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
        out: dict[tuple[int, ...], float] = {}
        for key, coeff in self.terms.items():
            p = key[index] if index < len(key) else 0
            if p == 0:
                continue
            new = list(key)
            new[index] = p - 1
            new_key = _trim(new)
            out[new_key] = out.get(new_key, 0.0) + coeff * p
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
    out = 1.0
    while p > 1:
        out *= p
        p -= 2
    return out


def expectation(P: ChaosPolynomial) -> float:
    """Gaussian expectation: E[prod xi_k^{p_k}] = prod (p_k - 1)!! over even p_k."""
    total = 0.0
    for key, coeff in P.terms.items():
        if any(p % 2 for p in key):
            continue
        moment = 1.0
        for p in key:
            moment *= _double_factorial(p - 1)
        total += coeff * moment
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
    out = ChaosPolynomial.zero(P.num_vars)
    for k, a in enumerate(coeffs[: P.num_vars]):
        if a != 0.0:
            out = out + float(a) * P.partial(k)
    return out


def inner_hmu(u: HmuValuedPolynomial, v: HmuValuedPolynomial) -> ChaosPolynomial:
    """Pointwise-in-omega coefficient inner product sum_k u_k v_k."""
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"component counts differ: {len(u)} vs {len(v)}"
        )
    out = ChaosPolynomial.zero()
    for a, b in zip(u.components, v.components):
        out = out + a * b
    return out


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

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[*^+-]))"
)


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].strip()
            if rest:
                raise ValueError(f"cannot parse polynomial near {rest[:20]!r}")
            break
        if match.lastgroup == "number":
            tokens.append(("num", float(match.group("number"))))
        elif match.lastgroup == "var":
            tokens.append(("var", int(match.group("var")[1:]) - 1))
        else:
            tokens.append(("op", match.group("op")))
        pos = match.end()
    return tokens


def _parse_term(tokens, i: int, text: str) -> tuple[ChaosPolynomial, int]:
    """One product of factors starting at token i; returns (term, next index)."""
    coeff = 1.0
    exps: dict[int, int] = {}
    expect_factor = True
    while i < len(tokens):
        kind, value = tokens[i]
        if expect_factor:
            if kind == "num":
                coeff *= value
            elif kind == "var":
                index = value
                if index < 0:
                    raise ValueError(f"variables are 1-based in {text!r}")
                power = 1
                if i + 1 < len(tokens) and tokens[i + 1] == ("op", "^"):
                    if i + 2 >= len(tokens) or tokens[i + 2][0] != "num":
                        raise ValueError(f"'^' needs an integer exponent in {text!r}")
                    raw = tokens[i + 2][1]
                    power = int(raw)
                    if raw != power:
                        raise ValueError(f"exponent must be an integer, got {raw!r}")
                    i += 2
                exps[index] = exps.get(index, 0) + power
            else:
                raise ValueError(f"expected a coefficient or variable in {text!r}")
            expect_factor = False
            i += 1
        elif tokens[i] == ("op", "*"):
            expect_factor = True
            i += 1
        else:
            break
    if expect_factor:
        raise ValueError(f"dangling operator in {text!r}")
    width = max(exps) + 1 if exps else 0
    key = tuple(exps.get(k, 0) for k in range(width))
    return ChaosPolynomial({key: coeff}, width), i


def parse_polynomial(text: str, num_vars: int | None = None) -> ChaosPolynomial:
    """Parse the textual format, e.g. ``2*x1^2*x2 - 3*x3``.

    Variables are x1..xm (1-based); terms are '*'-joined products of
    numeric coefficients and powers like ``x2^3``, combined with + and -.
    ``num_vars`` fixes the formal variable count (error if exceeded).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text")
    poly = ChaosPolynomial.zero()
    i = 0
    while True:
        sign = 1.0
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise ValueError(f"dangling operator at end of {text!r}")
        term, i = _parse_term(tokens, i, text)
        poly = poly + sign * term
        if i >= len(tokens):
            break
        if tokens[i] not in (("op", "+"), ("op", "-")):
            raise ValueError(f"expected '+' or '-' between terms in {text!r}")
    if num_vars is not None:
        if poly.num_vars > num_vars:
            raise DimensionMismatchError(
                f"polynomial uses {poly.num_vars} variables, limit is {num_vars}"
            )
        poly = ChaosPolynomial(poly.terms, num_vars)
    return poly


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
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
        factors = [
            f"x{i + 1}" + (f"^{p}" if p > 1 else "")
            for i, p in enumerate(key)
            if p > 0
        ]
        mag = abs(coeff)
        body = "*".join(factors)
        if not factors:
            chunk = _format_number(mag)
        elif mag == 1.0:
            chunk = body
        else:
            chunk = f"{_format_number(mag)}*{body}"
        parts.append(("- " if coeff < 0 else "+ ") + chunk)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
