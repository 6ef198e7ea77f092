import math

import numpy as np
import pytest

from weakfuse.errors import (
    DomainError,
    ParseError,
    UnsupportedFamily,
)
from weakfuse.gradients import _IndexMachine
from weakfuse.model import layout_from_design
from weakfuse.nuisance import NuisanceOptions
from weakfuse.weights import (
    BasisTerm,
    WeightSpec,
    basis_matrix,
    complex_family,
    eval_weight_many,
    parse_term,
)

from oracles import DiscreteLaw, assemble_beta


# ---------------------------------------------------------------------------
# term grammar


def test_parse_term_forms():
    assert parse_term("z3", 3) == BasisTerm(3, (), "identity")
    assert parse_term("z3^2", 3) == BasisTerm(3, (), "square")
    assert parse_term("log(z3)", 3) == BasisTerm(3, (), "log")
    assert parse_term("log1m(z3)", 3) == BasisTerm(3, (), "log1m")
    assert parse_term("z1*z2*log(z3)", 3) == BasisTerm(3, ((1, 1), (2, 1)), "log")
    assert parse_term("z2*z1*log(z3)", 3) == BasisTerm(3, ((1, 1), (2, 1)), "log")
    assert parse_term("z1^2*z3", 3) == BasisTerm(3, ((1, 2),), "identity")
    assert parse_term(" z1 * log1m(z2) ", 2) == BasisTerm(2, ((1, 1),), "log1m")


def test_parse_term_accumulates_repeated_factors():
    assert parse_term("z1*z1*z3", 3) == BasisTerm(3, ((1, 2),), "identity")
    with pytest.raises(ParseError, match="exponent"):
        parse_term("z1*z1*z1*z3", 3)
    with pytest.raises(ParseError, match="exponent"):
        parse_term("z1^2*z1*z3", 3)


@pytest.mark.parametrize("bad", [
    "", "   ", "foo", "z0*z3", "z1+z3", "log(z1)*z3", "z3*z3", "z3*log(z3)",
    "z4*z3", "z1", "z1*z2", "exp(z3)", "z1**z3", "z3^3",
])
def test_parse_term_rejections(bad):
    with pytest.raises(ParseError):
        parse_term(bad, 3)


def test_basis_term_guards():
    with pytest.raises(ParseError, match="transform"):
        BasisTerm(3, (), "cube")
    with pytest.raises(ParseError, match="precede"):
        BasisTerm(3, ((3, 1),), "log")
    with pytest.raises(ParseError, match="exponent"):
        BasisTerm(3, ((1, 3),), "log")
    with pytest.raises(ParseError, match="duplicate"):
        BasisTerm(3, ((1, 1), (1, 2)), "log")
    with pytest.raises(ParseError, match="sorted"):
        BasisTerm(3, ((2, 1), (1, 1)), "log")


def test_term_evaluate_oracle():
    t = parse_term("z1*z2*log(z3)", 3)
    row = np.array([[2.0, 3.0, 0.5]])
    assert t.evaluate(row)[0] == pytest.approx(2.0 * 3.0 * math.log(0.5), rel=1e-15)
    t2 = parse_term("z1^2*z2*z3^2", 3)
    row2 = np.array([[1.5, 2.0, 0.3]])
    assert t2.evaluate(row2)[0] == pytest.approx(1.5**2 * 2.0 * 0.3**2, rel=1e-15)
    t3 = parse_term("log1m(z2)", 2)
    assert t3.evaluate(np.array([[9.9, 0.25]]))[0] == pytest.approx(math.log(0.75), rel=1e-15)


def test_term_domain_errors():
    with pytest.raises(DomainError, match="log"):
        parse_term("log(z2)", 2).evaluate(np.array([[1.0, 0.0]]))
    with pytest.raises(DomainError, match="log"):
        parse_term("log(z2)", 2).evaluate(np.array([[1.0, -0.5]]))
    with pytest.raises(DomainError, match="log1m"):
        parse_term("log1m(z2)", 2).evaluate(np.array([[1.0, 1.0]]))


def test_term_text_round_trip():
    texts = ["z3", "z3^2", "log(z3)", "z1*log(z3)", "z1^2*z2*log1m(z3)", "z2*z3"]
    for text in texts:
        t = parse_term(text, 3)
        assert parse_term(t.text(), 3) == t


# ---------------------------------------------------------------------------
# weight specs


def test_weight_spec_tilt():
    spec = WeightSpec.tilt(3, ["z1*log(z3)", "z1*z2*log(z3)"])
    assert spec.family == "exponential_tilt"
    assert spec.nparams == 2
    spec.check_index(3)
    with pytest.raises(ParseError, match="used at index"):
        spec.check_index(2)


def test_weight_spec_guards():
    with pytest.raises(ParseError, match="family"):
        WeightSpec("gaussian_bump", 3, ())
    with pytest.raises(ParseError, match="at least one"):
        WeightSpec("exponential_tilt", 3, ())
    with pytest.raises(ParseError, match="duplicate"):
        WeightSpec.tilt(3, ["z1*log(z3)", "z1*log(z3)"])
    with pytest.raises(ParseError, match="index"):
        WeightSpec("exponential_tilt", 3, (parse_term("z1*log(z2)", 2),))
    with pytest.raises(ParseError, match="no basis"):
        WeightSpec("truncated_above_threshold", 3, (parse_term("z3", 3),), threshold=0.5)
    with pytest.raises(ParseError, match="no threshold"):
        WeightSpec("exponential_tilt", 3, (parse_term("z3", 3),), threshold=0.5)
    for bad in (None, float("nan"), float("inf"), "0.5"):
        with pytest.raises(ParseError, match="finite number"):
            WeightSpec("truncated_above_threshold", 3, threshold=bad)
    spec = WeightSpec("truncated_above_threshold", 3, threshold=1)
    assert spec.nparams == 0 and spec.threshold == 1.0


def test_basis_matrix():
    spec = WeightSpec.tilt(3, ["z1*log(z3)", "log1m(z3)"])
    zbar = np.array([[1.0, 0.0, 0.5], [2.0, 1.0, 0.25]])
    B = basis_matrix(spec, zbar)
    assert B.shape == (2, 2)
    np.testing.assert_allclose(B[:, 0], [math.log(0.5), 2 * math.log(0.25)], rtol=1e-15)
    np.testing.assert_allclose(B[:, 1], [math.log(0.5), math.log(0.75)], rtol=1e-15)
    with pytest.raises(UnsupportedFamily):
        basis_matrix(WeightSpec("truncated_above_threshold", 3, threshold=0.5), zbar)


def test_eval_weight_tilt_oracle():
    spec = WeightSpec.tilt(2, ["z1*z2", "log(z2)"])
    beta = np.array([0.4, -0.7])
    z = np.array([1.3, 0.6])
    expect = math.exp(0.4 * 1.3 * 0.6 - 0.7 * math.log(0.6))
    assert eval_weight_many(spec, beta, z)[0] == pytest.approx(expect, rel=1e-14)
    many = eval_weight_many(spec, beta, np.array([[1.3, 0.6], [0.2, 0.9]]))
    assert many[0] == pytest.approx(expect, rel=1e-14)
    with pytest.raises(ValueError, match="parameters"):
        eval_weight_many(spec, np.array([0.1]), np.array([[1.0, 0.5]]))


def test_eval_weight_truncation():
    spec = WeightSpec("truncated_above_threshold", 2, threshold=0.5)
    z = np.array([[0.0, 0.2], [0.0, 0.5], [0.0, 0.9]])
    np.testing.assert_array_equal(eval_weight_many(spec, [], z), [0.0, 1.0, 1.0])
    assert eval_weight_many(spec, [], [7.0, 0.49])[0] == 0.0
    with pytest.raises(ValueError, match="parameters"):
        eval_weight_many(spec, [0.5], z)


def test_weight_positivity_and_log_linearity():
    # for the exponential tilt, w > 0 always and log w is linear in beta
    rng = np.random.default_rng(20260815)
    spec = WeightSpec.tilt(3, ["z1*log(z3)", "z2*z3", "log1m(z3)"])
    for _ in range(40):
        zbar = np.column_stack([
            rng.uniform(0.5, 2.0, 5),
            rng.integers(0, 2, 5).astype(float),
            rng.uniform(0.05, 0.95, 5),
        ])
        b1 = rng.normal(scale=0.8, size=3)
        b2 = rng.normal(scale=0.8, size=3)
        w1 = eval_weight_many(spec, b1, zbar)
        w2 = eval_weight_many(spec, b2, zbar)
        w12 = eval_weight_many(spec, b1 + b2, zbar)
        assert np.all(w1 > 0)
        np.testing.assert_allclose(w1 * w2, w12, rtol=1e-12)


def test_logderiv_matches_finite_differences():
    # the tilt's score basis t(z̄) is d log w / d beta
    rng = np.random.default_rng(7)
    spec = WeightSpec.tilt(3, ["z1*log(z3)", "z1*z2*log(z3)", "z3^2"])
    h = 1e-6
    for _ in range(25):
        zbar = np.array([rng.uniform(0.5, 2.0), rng.integers(0, 2), rng.uniform(0.1, 0.9)])
        beta = rng.normal(scale=0.5, size=3)
        grad = basis_matrix(spec, zbar)[0]
        for c in range(3):
            e = np.zeros(3)
            e[c] = h
            fd = (math.log(eval_weight_many(spec, beta + e, zbar)[0])
                  - math.log(eval_weight_many(spec, beta - e, zbar)[0])) / (2 * h)
            assert grad[c] == pytest.approx(fd, rel=1e-6, abs=1e-8)
    with pytest.raises(UnsupportedFamily):
        basis_matrix(WeightSpec("truncated_above_threshold", 3, threshold=0.5), zbar)


def test_complex_family_order_and_uniqueness():
    fam3 = complex_family(3)
    assert [t.text() for t in fam3] == [
        "log(z3)", "z1*log(z3)", "z2*log(z3)", "z1*z2*log(z3)",
        "log1m(z3)", "z1*log1m(z3)", "z2*log1m(z3)", "z1*z2*log1m(z3)",
    ]
    assert [t.text() for t in complex_family(1)] == ["log(z1)", "log1m(z1)"]
    texts = [t.text() for t in fam3]
    assert len(set(texts)) == len(texts)
    for t in fam3:
        assert parse_term(t.text(), 3) == t
    # deterministic across calls
    assert complex_family(3) == fam3


# ---------------------------------------------------------------------------
# normalizers and normalized shifts as the engine builds them (exact on the
# finite-support instance)


def _machine(law, beta2=None, options=None):
    bundle = law.bundle(options)
    beta = assemble_beta(layout_from_design(law.design()), {
        (3, 2): [law.beta2 if beta2 is None else beta2], (3, 3): [law.beta3]})
    return bundle, _IndexMachine(bundle, beta, 3)


def _wstar(law, mach, s, beta2=None):
    """Normalized shift w*_s on the index-3 panel as one (E, T) matrix: the
    law's weight at every state and value over the machine's normalizer."""
    w = DiscreteLaw(beta2=law.beta2 if beta2 is None else beta2).weight(
        s, mach.panel.eval_states[:, :1], law.Z3[None, :])
    return w / mach.wfield[s][:, None]


def _at_rows(law, field):
    """Read an (E, T) index-3 field at every row's own state and value."""
    return field[law.i1 * 2 + law.i2, law.i3]


def test_estimate_normalizer_exact_on_discrete():
    law = DiscreteLaw()
    _, mach = _machine(law)
    for b1 in range(2):
        for b2 in range(2):
            want = float(law.Q3[(b1, b2)] @ law.weight(2, law.Z1[b1], law.Z3))
            assert mach.wfield[2][b1 * 2 + b2] == pytest.approx(want, rel=1e-13)


def test_density_ratio_exact_on_discrete():
    law = DiscreteLaw()
    _, mach = _machine(law)
    for b1 in range(2):
        for b2 in range(2):
            w = law.weight(3, law.Z1[b1], law.Z3)
            want = w / float(law.Q3[(b1, b2)] @ w)
            np.testing.assert_allclose(_wstar(law, mach, 3)[b1 * 2 + b2], want, rtol=1e-13)
    # row-side shifts carry the same values at each row's own z3
    on3 = law.src[mach.rows_S] == 3
    np.testing.assert_allclose(mach.wst_own[3][on3], _at_rows(law, _wstar(law, mach, 3))[on3],
                               rtol=1e-13)
    assert mach.clip_counts == {}


def test_density_ratio_is_one_at_zero_beta():
    # with beta = 0 the weight is constant 1 and the fitted normalizer is
    # exactly 1, so the normalized shift is exactly 1
    law = DiscreteLaw()
    _, mach = _machine(law, beta2=0.0)
    np.testing.assert_array_equal(mach.wfield[2], 1.0)
    np.testing.assert_array_equal(_wstar(law, mach, 2, beta2=0.0), 1.0)
    np.testing.assert_array_equal(mach.wst_own[2], 1.0)


def test_density_ratio_clipping_counted():
    # an extreme tilt drives w/W at z3 in {0.2, 0.5} far below the lower
    # clip bound; the shift is evaluated, and each clip counted, at every
    # row of S_3 (two of the three z3 values on each of 12 prefixes)
    law = DiscreteLaw()
    bundle, mach = _machine(law, beta2=40.0)
    lo, hi = bundle.options.ratio_clip
    raw = _at_rows(law, _wstar(law, mach, 2, beta2=40.0))
    np.testing.assert_array_equal(mach.wst_own[2], np.clip(raw, lo, hi))
    assert int(np.sum(raw < lo)) == 24
    assert mach.clip_counts == {"wstar_j3": 24}
    # a narrow clip binds at the true parameter too
    _, mach = _machine(law, options=NuisanceOptions(ratio_clip=(0.8, 1.25)))
    assert 0 < mach.clip_counts["wstar_j3"] <= mach.rows_S.size
    assert mach.wst_own[2].min() >= 0.8 and mach.wst_own[2].max() <= 1.25
