import numpy as np
import pytest

from harvestfield.errors import ScenarioError
from harvestfield.expressions import parse_expression


@pytest.mark.parametrize(
    "text, x, expected",
    [
        ("1 + 2*3", 0.0, 7.0),
        ("2^3^2", 0.0, 512.0),            # right-associative power
        ("-x^2", 3.0, -9.0),              # unary minus binds outside the power
        ("(1+x)*(1-x)", 2.0, -3.0),
        ("x/4 - 0.25", 2.0, 0.25),
        ("exp(0) + log(1)", 5.0, 1.0),
        ("1e-3 * x", 2000.0, 2.0),
        ("  x * ( x + 1 ) ", 2.0, 6.0),
        ("2*x - x - x", 7.0, 0.0),        # left-associative subtraction
    ],
)
def test_evaluation(text, x, expected):
    fn = parse_expression(text, "x")
    assert fn(x) == pytest.approx(expected, rel=1e-12)


def test_benchmark_price_expressions():
    phi1 = parse_expression("1/(z+1)", "z")
    assert phi1(0.5) == pytest.approx(2.0 / 3.0)
    phi2 = parse_expression("1/(1+exp(10*(z-1.9)))", "z")
    assert phi2(1.9) == pytest.approx(0.5)
    assert phi2(2.0) == pytest.approx(1.0 / (1.0 + np.exp(1.0)))


def test_vectorized_evaluation():
    fn = parse_expression("x*(1.5 - 0.5*x)", "x")
    xs = np.array([1.0, 2.0, 3.0])
    assert np.allclose(fn(xs), xs * (1.5 - 0.5 * xs))


@pytest.mark.parametrize(
    "text",
    ["1/(z+", "y + 1", "exp 2", "2 ** 3", "", "1..2", "log()", "(1+2", "1 2"],
)
def test_rejects_malformed(text):
    with pytest.raises(ScenarioError):
        parse_expression(text, "z")


def test_unknown_variable_names_the_expected_one():
    with pytest.raises(ScenarioError, match="free variable"):
        parse_expression("q + 1", "z")


@pytest.mark.parametrize("text", ["0.3*x^0.5", "0.3*x^1.5", "x^x", "2^x"])
def test_power_rounds_alike_on_floats_and_arrays(text):
    # the Monte-Carlo tail steps in floats what the stacked engine steps in arrays
    f = parse_expression(text)
    xs = np.random.default_rng(0).uniform(0.01, 5.0, 20_000)
    on_floats = [f(x) for x in xs.tolist()]
    assert all(type(v) is float for v in on_floats)
    assert np.array_equal(f(xs), on_floats)


def test_long_sums_and_deep_parentheses_evaluate_in_order():
    # a 100-term sum adds left to right, and parentheses change no float
    terms = [(k + 0.5) / 7 for k in range(100)]
    total = parse_expression(" + ".join(f"{c!r}*x^2" for c in terms))
    nested = parse_expression("(" * 50 + "x*(1.5 - 0.5*x)" + ")" * 50)
    for x in (np.linspace(0.1, 5.0, 9), 2.5):
        expected = terms[0] * np.power(x, 2.0)
        for c in terms[1:]:
            expected = expected + c * np.power(x, 2.0)
        assert np.array_equal(total(x), expected)
        assert np.array_equal(nested(x), x * (1.5 - 0.5 * x))


# 128 levels parse and evaluate; one more is refused, whether it is opened by a
# parenthesis, a call, a sign or an exponent, or added by an operator
@pytest.mark.parametrize(
    "deep",
    [
        lambda n: "(" * n + "x" + ")" * n,
        lambda n: "exp(" * n + "x" + ")" * n,
        lambda n: "-" * n + "x",
        lambda n: "^".join(["x"] * (n + 1)),
        lambda n: "+".join(["x"] * (n + 1)),
        lambda n: "(" * (n - 64) + "-" * 64 + "x" + ")" * (n - 64),
    ],
    ids=["parentheses", "calls", "signs", "exponents", "sum", "signs-in-parentheses"],
)
def test_nesting_bound(deep):
    with np.errstate(all="ignore"):   # nested exponentials overflow
        parse_expression(deep(128))(np.array([0.5, 2.0]))
    with pytest.raises(ScenarioError, match="nests deeper than 128 levels"):
        parse_expression(deep(129))
