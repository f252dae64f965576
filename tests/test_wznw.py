"""Casimir, conformal dimensions, determinant normalization."""

import random
from fractions import Fraction

import pytest

from qdyb.scalars import DegenerateParameterError, QContext
from qdyb.weights import SLnParams, WeightPoint, sample_params, sample_point
from qdyb.wznw import (
    WeightVector, casimir, det_normalization_check, dvec,
    reconcile_diag_gauge,
)


def all_pass(records):
    bad = [r for r in records if r[1] is False]
    assert not bad, "failed: %s" % (bad,)


def test_casimir_values():
    # vacuum-type weights
    assert casimir(WeightVector.from_point(WeightPoint(2, (1,)))) == 0
    assert casimir(WeightVector.from_point(WeightPoint(3, (1, 1)))) == 0
    assert casimir(WeightVector.from_point(WeightPoint(2, (2,)))) \
        == Fraction(3, 2)


def test_dvec_values_and_sum_rule():
    w = WeightVector.from_point(WeightPoint(2, (1,)))
    assert dvec(w) == [Fraction(-3, 2), Fraction(1, 2)]
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice([2, 3, 4, 5])
        chain = [rng.randint(-6, 6) for _ in range(n - 1)]
        w = WeightVector.from_point(WeightPoint(n, chain))
        d = dvec(w)  # two-route agreement asserted inside
        assert sum(d) == n * (Fraction(1, n) - 1)  # since sum p_j = 0


def test_weight_vector_centering():
    p = WeightPoint(3, (2, -1))
    w = WeightVector.from_point(p)
    assert sum(w.p) == 0
    assert w.p[0] - w.p[1] == 2 and w.p[1] - w.p[2] == -1


def test_det_normalization():
    for n, q, r in ((2, Fraction(9, 4), Fraction(3, 2)),
                    (3, Fraction(27, 8), Fraction(3, 2)),
                    (4, Fraction(16), Fraction(2))):
        ctx = QContext(q, n, root=r)
        all_pass(det_normalization_check(n, ctx))
    # q = 1 with root 1: the permutation sign count
    ctx = QContext(Fraction(1), 3, root=Fraction(1))
    all_pass(det_normalization_check(3, ctx))
    with pytest.raises(DegenerateParameterError):
        det_normalization_check(2, QContext(Fraction(2), 2))


def test_reconcile_gauge():
    rng = random.Random(9)
    # beta -> oo: exact match
    ctx = QContext(Fraction(4), 2, root=Fraction(2))
    params = SLnParams(ctx, None)
    p = sample_point(params, rng)
    all_pass(reconcile_diag_gauge(params, p))

    # generic: ratio equals pi, exact match fails
    params = sample_params(3, rng)
    p = sample_point(params, rng)
    records = reconcile_diag_gauge(params, p)
    by_id = {r[0]: r for r in records}
    assert by_id["wznw.gauge-ratio-is-pi"][1] is True
    assert by_id["wznw.gauge-exact-match"][1] is False


def test_numeric_instance_with_root():
    # q = 4 = r^2, p_12 = 1: q^(d_1) = r^(2 d_1) exactly
    ctx = QContext(Fraction(4), 2, root=Fraction(2))
    w = WeightVector.from_point(WeightPoint(2, (1,)))
    d = dvec(w)
    assert ctx.qpow(d[0]) == Fraction(1, 8)
    assert ctx.qpow(d[1]) == 2


def test_prime_wznw_suite_draws_over_its_field(monkeypatch):
    """Both gauge reconciliations of a prime run, at beta infinity and
    at the generic draw, get parameters over the run's field."""
    from qdyb import verify, wznw
    fields = []
    reconcile = wznw.reconcile_diag_gauge

    def spy(params, point):
        fields.append(params.ctx.field.name)
        return reconcile(params, point)

    monkeypatch.setattr(wznw, "reconcile_diag_gauge", spy)
    cfg = verify.RunConfig(n=3, draws=1, points=1, backend="prime")
    report = verify.run_suite("wznw", cfg)
    assert report["status"] == "pass"
    assert fields == [cfg.field().name] * 2
    assert fields[0].startswith("prime(")
