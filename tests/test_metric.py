import numpy as np
import pytest
from scipy.linalg import sqrtm

from microloc.metric import (InvalidFieldError, MetricField,
                             NotPositiveDefiniteError, conformal_field,
                             eval_metric, fiber_norm, identity_field,
                             sqrt_metric, verify_metric_hypotheses)


def _random_spd(rng, dim):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + dim * np.eye(dim)


def test_sqrt_against_scipy():
    rng = np.random.default_rng(7)
    for dim in (1, 2, 3):
        for _ in range(10):
            g = _random_spd(rng, dim)
            t = sqrt_metric(g)
            ref = np.asarray(sqrtm(g), dtype=float)
            assert np.abs(t - ref).max() < 1e-10
            assert np.abs(t @ t - g).max() < 1e-10


def test_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        sqrt_metric(np.diag([1.0, -0.5]))
    with pytest.raises(InvalidFieldError):
        sqrt_metric(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_sqrt_metric_on_a_stack():
    # one call on a stack equals one call per matrix, bit for bit
    rng = np.random.default_rng(3)
    for dim, count in ((1, 64), (2, 4096)):
        g = np.stack([_random_spd(rng, dim) for _ in range(count)])
        assert np.array_equal(sqrt_metric(g),
                              np.stack([sqrt_metric(m) for m in g]))
    indefinite = g.copy()
    indefinite[7] = np.diag([1.0, -0.5])
    with pytest.raises(NotPositiveDefiniteError):
        sqrt_metric(indefinite)
    asymmetric = g.copy()
    asymmetric[9, 0, 1] += 0.5
    with pytest.raises(InvalidFieldError):
        sqrt_metric(asymmetric)


def test_eval_metric_validation():
    bad_shape = MetricField(evaluator=lambda x: np.eye(3), dim=2)
    with pytest.raises(InvalidFieldError):
        eval_metric(bad_shape, [0.0, 0.0])
    asym = MetricField(evaluator=lambda x: np.array([[1.0, 0.2], [0.0, 1.0]]),
                       dim=2)
    with pytest.raises(InvalidFieldError):
        eval_metric(asym, [0.0, 0.0])
    nonfinite = MetricField(evaluator=lambda x: np.array([[np.nan]]), dim=1)
    with pytest.raises(InvalidFieldError):
        eval_metric(nonfinite, [0.0])


def test_identity_fiber_norm_is_euclidean():
    fld = identity_field(2)
    xi = np.array([3.0, 4.0])
    assert fiber_norm(fld, [0.3, -0.1], xi) == pytest.approx(5.0)


def test_conformal_scaling():
    fld = conformal_field(lambda x: 4.0, 2, lambda_min=4.0, lambda_max=4.0)
    assert fiber_norm(fld, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(2.0)


def test_hypotheses_identity():
    fld = identity_field(1)
    grid = [np.array([v]) for v in np.linspace(-2, 2, 9)]
    rep = verify_metric_hypotheses(fld, grid)
    assert rep.ok
    assert rep.spectral_ok and rep.comparability_ok
    assert max(rep.deriv_constants.values()) < 1e-6
    assert all(rep.deriv_stable.values())


def test_hypotheses_detect_spectral_violation():
    # declared window too tight for the actual eigenvalues
    fld = conformal_field(lambda x: 2.0 + np.sin(x[0]), 1,
                          lambda_min=1.5, lambda_max=2.5)
    grid = [np.array([v]) for v in np.linspace(-2, 2, 9)]
    rep = verify_metric_hypotheses(fld, grid)
    assert not rep.spectral_ok
    assert not rep.ok
    assert rep.violations


def test_hypotheses_conformal_ok():
    fld = conformal_field(lambda x: 2.0 + np.sin(x[0]), 1,
                          lambda_min=1.0, lambda_max=3.0)
    grid = [np.array([v]) for v in np.linspace(-3, 3, 13)]
    rep = verify_metric_hypotheses(fld, grid)
    assert rep.ok
    lo, hi = rep.comparability_range
    assert lo >= np.sqrt(1.0 / 3.0) - 1e-9
    assert hi <= np.sqrt(3.0) + 1e-9


def test_hypotheses_input_validation():
    fld = identity_field(1)
    with pytest.raises(ValueError):
        verify_metric_hypotheses(fld, [])
