import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnfield.chaos import (
    ChaosPolynomial,
    HmuValuedPolynomial,
    directional_derivative,
    expectation,
    format_polynomial,
    inner_hmu,
    malliavin_derivative,
    parse_polynomial,
    random_polynomial,
)
from wnfield.errors import DimensionMismatchError
from wnfield.spectral import RkhsElement

X1 = ChaosPolynomial.variable(0)
X2 = ChaosPolynomial.variable(1)
X3 = ChaosPolynomial.variable(2)
ONE = ChaosPolynomial.constant(1.0)


def double_factorial(p):
    out = 1
    while p > 1:
        out *= p
        p -= 2
    return out


def gaussian_moment_oracle(key):
    # independent Isserlis-style oracle: product of univariate moments
    value = 1.0
    for p in key:
        if p % 2:
            return 0.0
        value *= double_factorial(p - 1)
    return value


def terms_of(poly):
    return dict(poly.terms)


def test_multiplicative_unit():
    P = 2.0 * X1**2 * X2 - 3.0 * X3
    assert terms_of(P * ONE) == terms_of(P)


def test_squaring_a_variable():
    assert terms_of(X1 * X1) == {(2,): 1.0}


def test_binomial_expansion():
    P = (X1 + X2) ** 2
    assert terms_of(P) == {(2,): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_zero_coefficients_are_pruned():
    P = X1 + (-1.0) * X1
    assert P.is_zero()
    assert terms_of(P) == {}


def test_num_vars_extension():
    P = X1 + X3
    assert P.num_vars == 3
    assert (X1 * X2).num_vars == 2


def test_expectation_basic_moments():
    assert expectation(X1) == 0.0
    assert expectation(X1**2) == 1.0
    assert expectation(X1**4 * X2**2) == 3.0  # (4-1)!! * (2-1)!!
    assert expectation(X1**6) == 15.0
    assert expectation(ChaosPolynomial.constant(2.5)) == 2.5


def test_expectation_against_moment_oracle():
    rng = np.random.default_rng(10)
    for _ in range(50):
        key = tuple(int(rng.integers(0, 5)) for _ in range(4))
        coeff = float(rng.uniform(-3, 3))
        P = ChaosPolynomial({key: coeff}, 4)
        assert expectation(P) == pytest.approx(coeff * gaussian_moment_oracle(key), rel=1e-14)


def test_expectation_is_linear_and_psd():
    rng = np.random.default_rng(20)
    for _ in range(25):
        P = random_polynomial(rng, 4, 3, 5)
        Q = random_polynomial(rng, 4, 3, 5)
        a, b = rng.uniform(-2, 2, size=2)
        lhs = expectation(a * P + b * Q)
        rhs = a * expectation(P) + b * expectation(Q)
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert expectation(P * P) >= 0.0


def test_malliavin_derivative_examples():
    assert all(c.is_zero() for c in malliavin_derivative(ONE).components)
    D = malliavin_derivative(X1 * X2)
    assert terms_of(D.components[0]) == {(0, 1): 1.0}
    assert terms_of(D.components[1]) == {(1,): 1.0}
    D3 = malliavin_derivative(X1**3)
    assert terms_of(D3.components[0]) == {(2,): 3.0}


def test_product_rule_exact():
    rng = np.random.default_rng(30)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        P = random_polynomial(rng, m, 4, 4)
        Q = random_polynomial(rng, m, 4, 4)
        D_PQ = malliavin_derivative(P * Q)
        for k in range(m):
            lhs = D_PQ.components[k]
            rhs = P * Q.partial(k) + Q * P.partial(k)
            diff = lhs - rhs
            worst = max((abs(c) for c in diff.terms.values()), default=0.0)
            assert worst <= 1e-12


def test_gaussian_integration_by_parts():
    # E[xi_k P] = E[dP/dxi_k]: the scalar seed of the divergence duality
    rng = np.random.default_rng(40)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        P = random_polynomial(rng, m, 4, 5)
        for k in range(m):
            lhs = expectation(ChaosPolynomial.variable(k, m) * P)
            rhs = expectation(P.partial(k))
            assert lhs == pytest.approx(rhs, abs=1e-11)


def test_directional_derivative_examples():
    assert terms_of(directional_derivative(X1**2, [1.0])) == {(1,): 2.0}
    assert directional_derivative(ONE, [1.0, 2.0]).is_zero()
    both = directional_derivative(X1 * X2, [1.0, 1.0])
    assert terms_of(both) == {(1,): 1.0, (0, 1): 1.0}


def test_directional_matches_gradient_components():
    rng = np.random.default_rng(50)
    P = random_polynomial(rng, 5, 4, 6)
    D = malliavin_derivative(P)
    for k in range(5):
        e_k = np.zeros(5)
        e_k[k] = 1.0
        assert terms_of(directional_derivative(P, e_k)) == terms_of(D.components[k])


def test_directional_accepts_rkhs_element_and_pads():
    P = X1**2 + X2
    short = directional_derivative(P, RkhsElement([1.0]))
    assert terms_of(short) == {(1,): 2.0}
    long = directional_derivative(P, [0.0, 1.0, 5.0, 5.0])
    assert terms_of(long) == {(): 1.0}


def test_inner_hmu_examples():
    u = HmuValuedPolynomial((ONE, ChaosPolynomial.zero()))
    assert terms_of(inner_hmu(u, u)) == {(): 1.0}
    v = HmuValuedPolynomial((X2, ChaosPolynomial.zero(2)))
    assert terms_of(inner_hmu(v, v)) == {(0, 2): 1.0}
    with pytest.raises(DimensionMismatchError):
        inner_hmu(u, HmuValuedPolynomial((ONE,)))


def test_inner_hmu_duality_seed_example():
    # F = xi_1^2, u = (xi_1, 0): E[<DF, u>] = E[2 xi_1 * xi_1] = 2
    DF = malliavin_derivative(X1**2)
    u = HmuValuedPolynomial((X1,))
    assert expectation(inner_hmu(DF, u)) == pytest.approx(2.0, abs=1e-14)


def test_evaluate_polynomial():
    P = 2.0 * X1**2 * X2 - 3.0
    assert P([2.0, 0.5]) == pytest.approx(2 * 4 * 0.5 - 3, abs=1e-14)
    with pytest.raises(DimensionMismatchError):
        P([1.0])


def test_degree_and_coefficient():
    P = 2.0 * X1**2 * X2 - 3.0 * X3
    assert P.degree() == 3
    assert P.coefficient((2, 1)) == 2.0
    assert P.coefficient((0, 0, 1)) == -3.0
    assert ChaosPolynomial.zero().degree() == -1


def test_parse_round_trip():
    cases = [
        "2*x1^2*x2 - 3*x3",
        "x1",
        "-x1 + 1",
        "0",
        "x1^2 - 1",
        "0.001*x2",
        "2.5",
    ]
    for text in cases:
        P = parse_polynomial(text)
        again = parse_polynomial(format_polynomial(P))
        assert terms_of(P) == terms_of(again)


def test_parse_num_vars_bound():
    P = parse_polynomial("x2", num_vars=4)
    assert P.num_vars == 4
    with pytest.raises(DimensionMismatchError):
        parse_polynomial("x5", num_vars=4)
    # checked before the exponent list is padded to the index
    with pytest.raises(DimensionMismatchError, match="x99999999"):
        parse_polynomial("x1 + 2*x99999999^2", num_vars=4)


def test_parse_errors():
    for bad in ["", "x1 +", "*x1", "x0", "y1", "x1^2.5", "x1^-2", "2x1", "x1 x2",
                "x1**2", "x1^2^3", "1e999*x1", "x1^1e400"]:
        with pytest.raises(ValueError):
            parse_polynomial(bad)


def test_parse_grammar_table():
    cases = {
        "--x1": {(1,): 1.0},
        "x1 +- x2": {(1,): 1.0, (0, 1): -1.0},
        "x1*x1^2": {(3,): 1.0},
        "x1^2.0": {(2,): 1.0},
        "x1^1e1": {(10,): 1.0},
        "x01": {(1,): 1.0},
        ".5*x1": {(1,): 0.5},
        "x1-x1": {},
    }
    for text, terms in cases.items():
        assert terms_of(parse_polynomial(text)) == terms, text


@settings(derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 5), st.integers(1, 8),
       st.integers(-20, 20))
def test_parse_inverts_format(seed, num_vars, max_degree, n_terms, decade):
    P = random_polynomial(np.random.default_rng(seed), num_vars, max_degree, n_terms) * 10.0**decade
    again = parse_polynomial(format_polynomial(P))
    assert set(again.terms) == set(P.terms)
    for key, coeff in P.terms.items():
        assert again.terms[key] == pytest.approx(coeff, rel=1e-12, abs=0)


def test_format_examples():
    assert format_polynomial(X1**2 - 1.0) == "x1^2 - 1"
    assert format_polynomial(ChaosPolynomial.zero()) == "0"
    assert format_polynomial(-X1) == "-x1"


def test_scalar_minus_polynomial_and_repr():
    assert terms_of(1.0 - X1) == {(): 1.0, (1,): -1.0}
    assert terms_of(2 - 2 * X2**2) == terms_of(-(2 * X2**2 - 2))
    assert repr(X1**2 - 1.0) == "ChaosPolynomial('x1^2 - 1', num_vars=1)"
    assert repr(ChaosPolynomial.zero()) == "ChaosPolynomial('0', num_vars=0)"


#: calls that must fail, the exception each raises and its message
CHAOS_BRANCHES = [
    pytest.param(lambda: ChaosPolynomial({(1, -1): 1.0}, 2), ValueError,
                 "negative exponent in multi-index (1, -1)", id="negative-exponent"),
    pytest.param(lambda: ChaosPolynomial.variable(-1), ValueError,
                 "variable index must be >= 0, got -1", id="negative-variable-index"),
    pytest.param(lambda: X1 ** -1, ValueError, "exponent must be a nonnegative integer",
                 id="negative-power"),
    pytest.param(lambda: X1 + "x", TypeError, "cannot interpret str as a polynomial",
                 id="add-a-string"),
]


@pytest.mark.parametrize("call,error,message", CHAOS_BRANCHES)
def test_chaos_error_branches(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
