"""Weight points and the derived parameter tables."""

import random
import re
from fractions import Fraction

import pytest

from qdyb.rmatrix import ShiftedEvaluation
from qdyb.scalars import (
    RATIONAL, DegenerateParameterError, PoleError, PrimeField, QContext,
    qnum,
)
from qdyb.weights import (
    BETA_INFINITY, CONSTANT_MULTIPARAM, GENERIC, INTERMEDIATE, PairFamily,
    SLnParams, WeightPoint, constant_multiparam, derive_beta, pole_free,
    WIDE, sample_params, sample_point, sample_points, sample_q,
    takes_wide_point,
)
from test_scalars import xi_of_f


def test_weightpoint_additivity_and_shift():
    w = WeightPoint(4, (2, -1, 3))
    assert w.p(1, 2) == 2 and w.p(2, 3) == -1 and w.p(3, 4) == 3
    assert w.p(1, 3) == 1 and w.p(1, 4) == 4 and w.p(2, 4) == 2
    assert w.p(3, 1) == -1 and w.p(2, 2) == 0
    # shifting by v(m): p_jk -> p_jk + delta(m,j) - delta(m,k)
    for m in range(1, 5):
        s = w.shift(m)
        for j in range(1, 5):
            for k in range(1, 5):
                d = (1 if m == j else 0) - (1 if m == k else 0)
                assert s.p(j, k) == w.p(j, k) + d
        assert s.shift(m, -1) == w


def test_weightpoint_rejects_bad_chain():
    with pytest.raises(DegenerateParameterError, match="need n-1 = 2"):
        WeightPoint(3, (1,))
    with pytest.raises(DegenerateParameterError, match="integers"):
        WeightPoint(2, (Fraction(1, 2),))


def test_derive_beta_small_cases():
    ctx = QContext(Fraction(2), 2)
    b = derive_beta(ctx, [Fraction(1)])
    assert b[(1, 2)] == 1 and b[(2, 1)] == ctx.lam - 1

    ctx3 = QContext(Fraction(2), 3)
    b = derive_beta(ctx3, [Fraction(1), Fraction(3)])
    assert b[(1, 3)] == Fraction(6, 5)


def test_beta_invariants_and_pi():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice([2, 3, 4])
        params = sample_params(n, rng)
        lam = params.ctx.lam
        for i in range(1, n + 1):
            assert params.beta(i, i) == 0
            for j in range(1, n + 1):
                if i != j:
                    assert params.beta(i, j) + params.beta(j, i) == lam
                    assert params.pi(i, j) * params.pi(j, i) == 1
                for k in range(1, n + 1):
                    if len({i, j, k}) == 3:
                        assert (params.beta(i, j) * params.beta(j, k)
                                * params.beta(k, i)
                                + params.beta(i, k) * params.beta(k, j)
                                * params.beta(j, i)) == 0
                        assert (params.pi(i, j) * params.pi(j, k)
                                * params.pi(k, i)) == 1
        # multiplicativity along the chain
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                prod = params.ctx.field.one
                for k in range(i, j):
                    prod = prod * params.pi(k, k + 1)
                assert params.pi(i, j) == prod


def test_pi_closed_value():
    ctx = QContext(Fraction(2), 2)
    params = SLnParams(ctx, [Fraction(1)])
    assert params.pi(1, 2) == Fraction(-1, 2)


def test_b_table_properties():
    rng = random.Random(17)
    for _ in range(12):
        n = rng.choice([2, 3])
        params = sample_params(n, rng)
        p = sample_point(params, rng)
        lam = params.ctx.lam
        q = params.ctx.q
        for i in range(1, n + 1):
            assert params.b_entry(i, i, 0) == 0
            for j in range(1, n + 1):
                if i == j:
                    continue
                pij = p.p(i, j)
                b_ij = params.b_entry(i, j, pij)
                b_ji = params.b_entry(j, i, -pij)
                a_ij = params.a_entry(i, j, pij)
                a_ji = params.a_entry(j, i, -pij)
                assert b_ij + b_ji == lam
                assert a_ij * a_ji - b_ij * b_ji == 1
        for trip in [(i, j, k) for i in range(1, n + 1)
                     for j in range(1, n + 1) for k in range(1, n + 1)
                     if len({i, j, k}) == 3]:
            i, j, k = trip
            prod1 = (params.b_entry(i, j, p.p(i, j))
                     * params.b_entry(j, k, p.p(j, k))
                     * params.b_entry(k, i, p.p(k, i)))
            prod2 = (params.b_entry(i, k, p.p(i, k))
                     * params.b_entry(k, j, p.p(k, j))
                     * params.b_entry(j, i, p.p(j, i)))
            assert prod1 + prod2 == 0


def test_cycle_reversal_identity():
    # b_{i1 i2} b_{i2 i3} ... b_{ik i1} = (-1)^k b_{i1 ik} ... b_{i2 i1}
    rng = random.Random(23)
    for _ in range(6):
        params = sample_params(5, rng)
        p = sample_point(params, rng)

        def b(i, j):
            return params.b_entry(i, j, p.p(i, j))

        for k in (3, 4, 5):
            idx = rng.sample(range(1, 6), k)
            fwd = params.ctx.field.one
            for t in range(k):
                fwd = fwd * b(idx[t], idx[(t + 1) % k])
            bwd = params.ctx.field.one
            for t in range(k):
                bwd = bwd * b(idx[(t + 1) % k], idx[t])
            assert fwd == (-1) ** k * bwd


def test_xi_values_and_regimes():
    ctx = QContext(Fraction(2), 2)
    params = SLnParams(ctx, [Fraction(1)])
    assert params.regime == GENERIC
    assert params.xi(1, 1, 0) == ctx.q
    assert params.xi(1, 2, 2) == Fraction(6, 11)

    inf = SLnParams(ctx, None)
    assert inf.regime == BETA_INFINITY
    p = WeightPoint(2, (1,))
    assert inf.xi(1, 2, p.p(1, 2)) == 0  # [0]/[1]
    assert inf.xi(2, 1, -1) == qnum(2, ctx)

    cm = SLnParams(ctx, [ctx.lam])
    assert cm.regime == CONSTANT_MULTIPARAM

    ctx3 = QContext(Fraction(2), 3)
    mixed = SLnParams(ctx3, [Fraction(0), Fraction(5)])
    assert mixed.regime == INTERMEDIATE


def test_alpha_constraint_and_twist():
    rng = random.Random(9)
    fam = PairFamily.geometric(
        3, {(1, 2): Fraction(2), (1, 3): Fraction(3, 2), (2, 3): Fraction(5)},
        {(1, 2): Fraction(2), (1, 3): Fraction(3), (2, 3): Fraction(1, 2)},
        RATIONAL)
    for i in range(1, 4):
        for j in range(1, 4):
            for x in range(-6, 7):
                if i != j:
                    assert fam(i, j, x) * fam(j, i, -x) == 1
            assert fam(i, i, 3) == 1
    psi = PairFamily.constant(3, {(1, 2): Fraction(7), (1, 3): Fraction(1, 3),
                                  (2, 3): Fraction(2)}, RATIONAL)
    tw = fam.twisted(psi)
    for i in range(1, 4):
        for j in range(1, 4):
            if i == j:
                continue
            for x in range(-4, 5):
                assert tw(i, j, x) == fam(i, j, x) * psi(j, i, -x) ** 2
                assert tw(i, j, x) * tw(j, i, -x) == 1


def test_twist_can_cancel_constant_alpha():
    # psi chosen as c_ji^(1/2)-free trick: pick alpha = psi-squared twist of 1
    rng = random.Random(1)
    base = PairFamily.unit(3, RATIONAL)
    psi = PairFamily.constant(3, {(1, 2): Fraction(2), (1, 3): Fraction(5),
                                  (2, 3): Fraction(1, 7)}, RATIONAL)
    fam = base.twisted(psi)
    # twisting back by the inverse family restores alpha = 1
    inv = PairFamily.constant(3, {(1, 2): Fraction(1, 2),
                                  (1, 3): Fraction(1, 5),
                                  (2, 3): Fraction(7)}, RATIONAL)
    back = fam.twisted(inv)
    for i in range(1, 4):
        for j in range(1, 4):
            if i != j:
                assert back(i, j, 4) == 1


def test_phi_is_discrete_antiderivative():
    fam = PairFamily.geometric(2, {(1, 2): Fraction(3)},
                               {(1, 2): Fraction(2)}, RATIONAL)
    for x in range(-5, 6):
        assert fam.phi(1, 2, x + 1) == fam(1, 2, x) * fam.phi(1, 2, x)
        assert fam.phi(2, 1, x + 1) == fam(2, 1, x) * fam.phi(2, 1, x)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField(101)])
def test_a_pair_family_is_over_its_field(field):
    """The diagonal alpha and phi of either kind, and of a twisted
    family, are the given field's one; a family whose values are of
    another field raises naming both."""
    const = PairFamily.constant(3, {(1, 2): 2, (1, 3): Fraction(1, 3),
                                    (2, 3): 5}, field)
    geo = PairFamily.geometric(3, {(1, 2): 3, (1, 3): 7, (2, 3): -2},
                               {(1, 2): 2, (1, 3): 3, (2, 3): 4}, field)
    for fam in (const, geo, const.twisted(geo), geo.twisted(const)):
        assert fam.field == field
        for i in range(1, 4):
            for x in (-2, 0, 3):
                for one in (fam(i, i, x), fam.phi(i, i, x)):
                    assert one == field.one
                    assert type(one) is type(field.one)
    other = PrimeField(101).of if field is RATIONAL else Fraction
    with pytest.raises(ValueError, match="mixed fields"):
        PairFamily(2, "constant", {(1, 2): other(2), (2, 1): other(1) / 2},
                   None, field)


def test_geometric_alpha_bad_ratio_rejected():
    with pytest.raises(DegenerateParameterError):
        PairFamily(2, "geometric",
                   {(1, 2): Fraction(2), (2, 1): Fraction(1, 2)},
                   {(1, 2): Fraction(2), (2, 1): Fraction(1, 2)}, RATIONAL)


def test_degenerate_chain_raises():
    ctx = QContext(Fraction(2), 3)
    # beta_2 chosen so prod(beta) - prod(beta - lam) = 0 for the (1,3) pair
    lam = ctx.lam
    b1 = Fraction(1)
    # b1*b2 = (b1-lam)(b2-lam) collapses to b1 + b2 = lam
    b2 = lam - b1
    with pytest.raises(DegenerateParameterError):
        derive_beta(ctx, [b1, b2])
    with pytest.raises(DegenerateParameterError, match="need n-1 = 2"):
        SLnParams(ctx, [b1])


@pytest.mark.parametrize("q, field, shown", [
    (1, RATIONAL, "1 over rational"), (-1, RATIONAL, "-1 over rational"),
    (Fraction(9, 4), PrimeField(5), "1 over prime(5)")])
def test_no_generic_chain_at_unit_q_squared(q, field, shown):
    """At q^2 = 1 every chain is degenerate (lam = 0): the generic
    sampler raises at once, naming q, and draws nothing."""
    ctx = QContext(field.of(q), 2, field=field)
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(DegenerateParameterError,
                       match=re.escape("no generic beta chain at q = %s: "
                                       "lam = q - qbar = 0" % shown)):
        sample_params(2, rng, ctx=ctx)
    assert rng.getstate() == state
    # the constant multiparametric chain [lam] is [0] there too
    cm = re.escape("no constant-multiparam beta chain at q = %s: "
                   "lam = q - qbar = 0" % shown)
    with pytest.raises(DegenerateParameterError, match=cm):
        constant_multiparam(ctx)
    with pytest.raises(DegenerateParameterError, match=cm):
        sample_params(2, rng, ctx=ctx, regime=CONSTANT_MULTIPARAM)


def test_params_json_roundtrip():
    rng = random.Random(77)
    for alpha in ("unit", "standard", "constant", "geometric"):
        params = sample_params(3, rng, alpha=alpha)
        doc = params.to_json()
        back = SLnParams.from_json(doc, RATIONAL)
        assert back.to_json() == doc
        assert back.regime == params.regime
    inf = SLnParams(QContext(Fraction(2), 2), None)
    assert SLnParams.from_json(inf.to_json(), RATIONAL).beta_chain is None


def test_sample_point_is_pole_free():
    rng = random.Random(13)
    for _ in range(10):
        params = sample_params(3, rng)
        p = sample_point(params, rng, clearance=3)
        assert pole_free(params, p, 3)


def _xi_reference(params, i, j, pij):
    """xi_ij(p_ij) straight from its formula, without any memo."""
    ctx = params.ctx
    if i == j:
        return ctx.q
    if params.beta_chain is None:
        qnum_frac = lambda e: (ctx.qpow(e) - 1 / ctx.qpow(e)) / ctx.lam
        return qnum_frac(pij - 1) / qnum_frac(pij)
    return xi_of_f(pij, params.beta(i, j), ctx)


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()],
                         ids=["rational", "prime"])
def test_xi_memo_is_transparent(field):
    """Every regime, integer and fractional arguments, first and repeated
    calls: the memoized xi equals the uncached formula."""
    r = field.of(Fraction(3, 2))
    ctx = QContext(r**3, 3, root=r, field=field)
    rng = random.Random(23)
    families = [sample_params(3, rng, ctx=ctx, alpha="geometric"),
                sample_params(3, rng, ctx=ctx, regime=BETA_INFINITY),
                constant_multiparam(ctx)]
    assert [f.regime for f in families] == \
        [GENERIC, BETA_INFINITY, CONSTANT_MULTIPARAM]
    for params in families:
        p = sample_point(params, rng)
        ev = ShiftedEvaluation(params, (Fraction(1, 3), 0, Fraction(-1, 3)))
        for _ in range(2):
            for i in range(1, 4):
                for j in range(1, 4):
                    for t in (-1, 0, 1):
                        pij = p.p(i, j) + t
                        assert params.xi(i, j, pij) == \
                            _xi_reference(params, i, j, pij)
                        arg = ev.arg(i, j, pij)
                        assert ev.xi(i, j, pij) == \
                            _xi_reference(params, i, j, arg)
        # the fractional arguments went through the memo too
        assert any(isinstance(pij, Fraction) and pij.denominator == 3
                   for memo in params._xi.values() for pij in memo)


def test_xi_pole_raises_on_every_call():
    ctx = QContext(Fraction(2), 2)
    beta = -ctx.qbar**2 / qnum(2, ctx)  # zero of f(2, .)
    for params, pij in ((SLnParams(ctx, [beta]), 2),
                        (SLnParams(ctx, None), 0)):   # [0] = 0
        for _ in range(2):
            with pytest.raises(PoleError):
                params.xi(1, 2, pij)
        assert params.xi(1, 2, pij + 1) == \
            _xi_reference(params, 1, 2, pij + 1)


def _pole_free_by_xi(params, point, clearance):
    """pole_free as it was decided from xi: every xi_ij within `clearance`
    of p_ij, both directions, formed and checked for a PoleError."""
    for i in range(1, params.n + 1):
        for j in range(i + 1, params.n + 1):
            pij = point.p(i, j)
            for t in range(-clearance, clearance + 1):
                try:
                    params.xi(i, j, pij + t)
                    params.xi(j, i, -pij + t)
                except PoleError:
                    return False
    return True


def _pole_cases(field):
    """Parameter sets of every regime and alpha kind over `field`, each
    with the p_12 at which a pole is planted, if one is."""
    rng = random.Random(31)
    r = field.of(Fraction(3, 2))
    ctx2 = QContext(r**2, 2, root=r, field=field)
    ctx3 = QContext(r**3, 3, root=r, field=field)
    planted = -ctx2.qbar**3 / qnum(3, ctx2)        # f(3, planted) = 0
    cases = [(SLnParams(ctx2, [planted], alpha), 3) for alpha in (
        PairFamily.unit(2, field), PairFamily.standard(2, ctx2),
        sample_params(2, rng, ctx=ctx2, alpha="geometric").alpha)]
    # f(3, beta_21) = 0: the pole of the reverse direction, at p_12 = -3
    cases.append((SLnParams(ctx2, [ctx2.lam - planted]), -3))
    cases.append((SLnParams(ctx2, None), 0))                # [0] = 0
    cases += [(sample_params(3, rng, ctx=ctx3, alpha=alpha), None)
              for alpha in ("unit", "constant", "geometric")]
    cases.append((constant_multiparam(ctx3), None))
    cases.append((SLnParams(ctx3, [field.zero, field.of(5)]), None))
    return cases


@pytest.mark.parametrize("field", [RATIONAL, PrimeField()],
                         ids=["rational", "prime"])
def test_pole_free_agrees_with_xi(field):
    """pole_free forms no xi, and decides as the xi-based scan does in
    every regime: False for a pole inside the clearance, True for one just
    outside it."""
    regimes = set()
    rng = random.Random(5)
    for params, pole in _pole_cases(field):
        regimes.add(params.regime)
        n, clearance = params.n, 3
        points = [WeightPoint(n, [rng.randint(-6, 6) for _ in range(n - 1)])
                  for _ in range(12)]
        if pole is not None:        # p_12 = pole + t for t = -c..c
            inside = [WeightPoint(2, (pole + t,))
                      for t in range(-clearance, clearance + 1)]
            outside = [WeightPoint(2, (pole - clearance - 1,)),
                       WeightPoint(2, (pole + clearance + 1,))]
            assert not any(pole_free(params, w, clearance) for w in inside)
            assert all(pole_free(params, w, clearance) for w in outside)
            points += inside + outside
        fresh = SLnParams(params.ctx, params.beta_chain, params.alpha)
        for w in points:
            assert pole_free(params, w, clearance) == \
                _pole_free_by_xi(fresh, w, clearance), (params, w)
        assert not params._xi
    assert regimes == {GENERIC, BETA_INFINITY, CONSTANT_MULTIPARAM,
                       INTERMEDIATE}


def test_sample_point_forms_no_xi_and_each_f_once(monkeypatch):
    """The pole scan of sample_point fills only the denominator memo, and
    computes f once per pair and argument."""
    from qdyb import weights
    calls = {}
    f_poly = weights.f_poly

    def counted(x, beta, ctx):
        calls[x, beta] = calls.get((x, beta), 0) + 1
        return f_poly(x, beta, ctx)

    monkeypatch.setattr(weights, "f_poly", counted)
    rng = random.Random(41)
    for draw in range(12):
        n = 2 + draw % 3
        params = sample_params(n, rng, alpha=("unit", "geometric")[draw % 2])
        calls.clear()
        p = sample_point(params, rng, clearance=4)
        assert not params._xi
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                 if i != j]
        scanned = {(i, j, x) for (i, j), memo in params._den.items()
                   for x in memo}
        assert {(i, j, p.p(i, j) + t) for i, j in pairs
                for t in range(-4, 5)} <= scanned
        # one call per (pair, argument): pairs with equal beta share keys
        for (x, beta), count in calls.items():
            assert count == sum((i, j, x) in scanned for i, j in pairs
                                if params.beta(i, j) == beta)
        assert sum(calls.values()) == len(scanned)


@pytest.mark.parametrize("regime, derived", [
    (GENERIC, "sampler"), (BETA_INFINITY, None),
    (CONSTANT_MULTIPARAM, "init")])
def test_sample_params_derives_beta_once(monkeypatch, regime, derived):
    """The beta table that validated the drawn chain is the parameter
    set's own: derive_beta runs once per chain tried, never again for
    the chain kept."""
    from qdyb import weights
    chains = []

    def counted(ctx, chain):
        chains.append(tuple(chain))
        return derive_beta(ctx, chain)

    monkeypatch.setattr(weights, "derive_beta", counted)
    rng = random.Random(43)
    for draw in range(20):
        n = 2 + draw % 3
        chains.clear()
        params = sample_params(n, rng, regime=regime,
                               alpha=("unit", "constant")[draw % 2])
        if derived is None:
            assert not chains and params.beta_chain is None
            continue
        assert chains[-1] == params.beta_chain
        assert chains.count(params.beta_chain) == 1
        if derived == "init":
            assert chains == [params.beta_chain]
        assert params._beta == derive_beta(params.ctx, params.beta_chain)


def _qmatrix_params(n, field, rng, alpha="constant"):
    r = field.of(Fraction(3, 2))
    ctx = QContext(r**n, n, root=r, field=field)
    return sample_params(n, rng, ctx=ctx, alpha=alpha)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("alpha", ["constant", "unit"])
def test_sample_points_take_one_wide_point_on_the_default_prime(n, alpha):
    """One pole-free point in [-WIDE, WIDE)^(n-1) replaces the narrow
    ones, and rng goes on as after the narrow draws."""
    for seed in (0, 1, 7):
        rng, twin = random.Random(seed), random.Random(seed)
        params = _qmatrix_params(n, PrimeField(), rng, alpha)
        _qmatrix_params(n, PrimeField(), twin, alpha)
        assert takes_wide_point(params)
        pts = sample_points(params, rng, 3, clearance=6)
        narrow = [sample_point(params, twin, clearance=6) for _ in range(3)]
        assert rng.getstate() == twin.getstate()
        (p,) = pts
        assert all(-WIDE <= c < WIDE for c in p.chain)
        assert max(abs(c) for c in p.chain) > 2**40
        assert pole_free(params, p, 6) and p not in narrow


@pytest.mark.parametrize("field, alpha", [
    (RATIONAL, "constant"), (RATIONAL, "geometric"),
    (PrimeField(), "geometric"), (PrimeField(1000003), "constant")])
def test_sample_points_stay_narrow_elsewhere(field, alpha):
    """The rational backend, geometric alpha and a prime whose 3/2 has a
    small order keep the narrow points sample_point draws."""
    for n in (2, 3):
        rng, twin = random.Random(5), random.Random(5)
        params = _qmatrix_params(n, field, rng, alpha)
        _qmatrix_params(n, field, twin, alpha)
        assert not takes_wide_point(params)
        first = sample_point(params, rng, clearance=6)
        want = [sample_point(params, twin, clearance=6) for _ in range(2)]
        assert sample_points(params, rng, 2, clearance=6, first=first) \
            == want
        assert sample_points(params, rng, 1) == [sample_point(params, twin)]


def test_beta_infinity_keeps_narrow_points():
    F = PrimeField()
    r = F.of(Fraction(3, 2))
    params = SLnParams(QContext(r**2, 2, root=r, field=F), None)
    assert not takes_wide_point(params)
    assert len(sample_points(params, random.Random(3), 2)) == 2
