"""Verification suites and machine-readable reports.

Each suite runs a battery of exact identity checks against seeded random
parameter draws and weight points, and returns a report dict with schema
"qdyb-report/1": one record per identity, sorted by id, each carrying a
pass/fail/skip status and (on failure) the first offending entry as a
witness.  Identical configurations produce byte-identical reports except
for the timing fields.

Every suite also has a deliberately corrupted variant (broken beta
symmetry, wrong tensor sign, a wrong xi entry, non-unimodular shift
dressing, wrong determinant scaling) used as a negative control: it
must fail.  CORRUPTIONS names the suites each corruption breaks; a run
of another named suite under it is refused, since it would check
nothing the corruption touches.
"""

import itertools
import random
import time
from fractions import Fraction

from .scalars import (
    DegenerateParameterError, PoleError, PrimeField, QContext, RATIONAL,
    f_poly, fmt_scalar, qnum, qnum_base,
)
from .weights import (
    BETA_INFINITY, CONSTANT_MULTIPARAM, GENERIC, SLnParams, WeightPoint,
    constant_multiparam, parse_beta_chain, sample_params, sample_point,
    sample_points, sample_q, sample_twist,
)
from . import rmatrix, hecke, levicivita, wznw
from .checks import Check, fold, mismatch, prefixed, tally
from .qmatrix import ReplayEngine, builtin_derivations, oracle_confirm
from .tensor import TensorOp

SCHEMA = "qdyb-report/1"

ALPHAS = ("unit", "standard")

#: the negative controls: each corruption, and the suites it breaks
CORRUPTIONS = {"beta": ("params", "qdybe", "hecke"),
               "eps-sign": ("epsilon",), "xi": ("appendix",),
               "xunit": ("qmatrix",), "scale": ("wznw",)}


def fixed_params(n, q, root, beta, alpha, field):
    """The flags --q, --root, --beta (a list or "infinity") and --alpha
    at n, read as a params file is: `build` and `verify` read them alike."""
    return SLnParams.from_json({"n": n, "q": q, "root": root, "beta": beta,
                                "alpha": {"preset": alpha}}, field)


class RunConfig:
    """Seeded, serializable configuration driving a verification run."""

    def __init__(self, n=2, q=None, root=None, beta=None, alpha="unit",
                 draws=5, points=3, seed=0, backend="rational",
                 corrupt=None):
        if n < 2:
            # every suite checks identities between index pairs i < j
            raise DegenerateParameterError("n must be at least 2, got %d" % n)
        if draws < 1 or points < 1:
            # with no draw or no point a suite checks nothing, and an
            # empty battery must not report a pass
            raise DegenerateParameterError(
                "draws and points must be at least 1, got draws=%d "
                "points=%d" % (draws, points))
        if alpha not in ALPHAS:
            raise DegenerateParameterError(
                "alpha %r must be one of %s" % (alpha, ", ".join(ALPHAS)))
        if corrupt is not None and corrupt not in CORRUPTIONS:
            raise DegenerateParameterError(
                "corrupt %r must be one of %s"
                % (corrupt, ", ".join(CORRUPTIONS)))
        if corrupt == "beta" and beta == "infinity":
            raise DegenerateParameterError(
                "corrupt 'beta' breaks a finite beta chain, and beta "
                "infinity has none")
        self.n = n
        self.q = q
        self.root = root
        self.beta = beta
        self.alpha = alpha
        self.draws = draws
        self.points = points
        self.seed = seed
        self.backend = backend
        self.corrupt = corrupt
        # the run's field, built once: a bad backend or modulus fails here
        name, _, modulus = backend.partition(":")
        if backend == "rational":
            self._field = RATIONAL
        elif backend == "prime":
            self._field = PrimeField()
        elif name == "prime" and modulus.isascii() and modulus.isdigit():
            self._field = PrimeField(int(modulus))
        else:
            raise DegenerateParameterError(
                "unknown backend %r: use rational, prime or prime:P with P "
                "in decimal digits" % backend)
        # a bad user-given q, root or beta is a usage error, as in `build`;
        # only the parameters the samplers draw fail as setup records
        if q is not None or root is not None:
            fixed_params(n, q, root, beta or "infinity", alpha, self._field)
        elif beta is not None:
            parse_beta_chain(beta, n, self._field)

    def field(self):
        return self._field

    def to_json(self):
        return {k: getattr(self, k) for k in
                ("n", "q", "root", "beta", "alpha", "draws", "points",
                 "seed", "backend", "corrupt")}

    def rng(self):
        return random.Random(self.seed)

    def context(self, rng):
        field = self.field()
        if self.q is not None:
            return fixed_params(self.n, self.q, self.root, "infinity",
                                "unit", field).ctx
        return QContext(field.of(sample_q(rng)), self.n, field=field)

    def draw_params(self, rng):
        if self.beta is None:
            return sample_params(self.n, rng, ctx=self.context(rng),
                                 alpha=self.alpha)
        # read as `build` reads the flags, at a drawn q if none is given
        q = fmt_scalar(self.context(rng).q) if self.q is None else self.q
        return fixed_params(self.n, q, self.root, self.beta, self.alpha,
                            self.field())


PARAM_DRAWS = 10


def _params_and_point(rng, draw, clearance=4):
    """Parameters from draw(rng) and a pole-free weight point for them.

    Parameters with no pole-free point in the sampled range (a drawn
    beta equal to q, say) are drawn again, at most PARAM_DRAWS times in
    all, unless draw(rng) used no randomness: fixed parameters would
    come out the same every time.  A first draw that has such a point
    uses rng exactly as draw(rng) followed by sample_point does.
    """
    for attempt in range(PARAM_DRAWS):
        state = rng.getstate()
        params = draw(rng)
        fixed = rng.getstate() == state
        try:
            return params, sample_point(params, rng, clearance=clearance)
        except DegenerateParameterError:
            if fixed or attempt == PARAM_DRAWS - 1:
                raise


def replay_engines(cfg):
    """The replay engines of the qmatrix suite and of `derive`, one per
    draw up to three: at q = (3/2)^n with root 3/2, alpha constant, unit,
    geometric, with points 6 steps clear of any pole."""
    rng = cfg.rng()
    n = cfg.n
    field = cfg.field()
    r = field.of(Fraction(3, 2))
    ctx = QContext(r**n, n, root=r, field=field)
    for alpha in ("constant", "unit", "geometric")[:cfg.draws]:
        params, first = _params_and_point(
            rng, lambda rng: sample_params(n, rng, ctx=ctx, alpha=alpha),
            clearance=6)
        yield ReplayEngine(params, sample_points(
            params, rng, cfg.points, clearance=6, first=first))


def _corrupt_beta(params):
    """Break the antisymmetry beta_ij + beta_ji = lam on one pair."""
    bad = dict(params._beta)
    bad[(2, 1)] = bad[(2, 1)] + 1
    return SLnParams(params.ctx, params.beta_chain, params.alpha,
                     _beta_override=bad)


# -- suites ---------------------------------------------------------------


def suite_params(cfg):
    rng = cfg.rng()
    records = []
    field = cfg.field()

    # q-number consistency: [j][k+1] - [j+1][k] = [j-k]
    ctx = cfg.context(rng)
    records.append(tally("params.qnum-consistency", (
        None if qnum(j, ctx) * qnum(k + 1, ctx)
        - qnum(j + 1, ctx) * qnum(k, ctx) == qnum(j - k, ctx) else (j, k)
        for j in range(-6, 7) for k in range(-6, 7))))

    # f recursion and the b fraction recursion
    betas = [field.of(Fraction(rng.randint(-8, 8), rng.randint(1, 3)))
             for _ in range(10)]
    cases = [(beta, p) for beta in betas for p in range(-8, 9)]

    def b_fraction(beta, p):
        """None, or (beta, p) where b(p+1) = q b(p) / (qbar + b(p)) fails
        for b(p) = q - f(p-1)/f(p); a vanishing denominator skips p."""
        den, den1 = f_poly(p, beta, ctx), f_poly(p + 1, beta, ctx)
        if den and den1:
            b = ctx.q - f_poly(p - 1, beta, ctx) / den
            if ctx.qbar + b \
                    and ctx.q - den / den1 != b * ctx.q / (ctx.qbar + b):
                return beta, p

    records.append(tally("params.f-recursion", (
        None if f_poly(p + 1, beta, ctx) + f_poly(p - 1, beta, ctx)
        == qnum(2, ctx) * f_poly(p, beta, ctx) else (beta, p)
        for beta, p in cases)))
    records.append(tally("params.b-fraction-recursion",
                         (b_fraction(beta, p) for beta, p in cases)))

    for d in range(cfg.draws):
        params, p = _params_and_point(rng, cfg.draw_params)
        bad = params if cfg.corrupt != "beta" else _corrupt_beta(params)
        lam = params.ctx.lam
        idx = range(1, params.n + 1)
        pairs = list(itertools.permutations(idx, 2))
        if params.beta_chain is None:
            for name in ("beta-antisymmetry", "beta-triple-cycle"):
                records.append(Check("params.%s[%d]" % (name, d), None,
                                     "beta is infinite in this regime"))
        else:
            records.append(tally("params.beta-antisymmetry[%d]" % d, (
                None if (s := bad.beta(i, j) + bad.beta(j, i)) == lam
                else (i, j, s) for i, j in pairs)))
            records.append(tally("params.beta-triple-cycle[%d]" % d, (
                None if bad.beta(i, j) * bad.beta(j, k) * bad.beta(k, i)
                + bad.beta(i, k) * bad.beta(k, j) * bad.beta(j, i) == 0
                else (i, j, k) for i, j, k in itertools.permutations(idx, 3))))
        records.append(tally("params.pi-inverse-pairs[%d]" % d, (
            None if params.pi(i, j) * params.pi(j, i) == 1 else (i, j)
            for i, j in pairs)))
        records.append(tally("params.alpha-pairing[%d]" % d, (
            None if params.alpha(i, j, x) * params.alpha(j, i, -x) == 1
            else (i, j, x) for i, j in pairs for x in range(-6, 7))))

        def ab_quadratic(i, j):
            """None, or (i, j, a_ij a_ji - b_ij b_ji) where that is not 1
            or b_ij + b_ji is not lam."""
            pij = p.p(i, j)
            bij, bji = bad.b_entry(i, j, pij), bad.b_entry(j, i, -pij)
            det = bad.a_entry(i, j, pij) * bad.a_entry(j, i, -pij) - bij * bji
            return None if bij + bji == lam and det == 1 else (i, j, det)

        records.append(tally("params.ab-quadratic[%d]" % d,
                             (ab_quadratic(i, j) for i, j in pairs)))
        records.extend(prefixed("params.d%d." % d,
                                rmatrix.pi_ratio_check(params, p)))

    # prime backend agreement on scalar kernels
    F = PrimeField()
    rngp = random.Random(cfg.seed + 1)

    def disagreements():
        """None for each kernel value that agrees, else its name and
        arguments; 10 draws, those at q = 1 left out."""
        for _ in range(10):
            qv = Fraction(rngp.randint(2, 9), rngp.randint(1, 3))
            if qv == 1:
                continue
            cq = QContext(qv, 3)
            cf = QContext(F.of(qv), 3, field=F)
            j = rngp.randint(-5, 5)
            beta = Fraction(rngp.randint(-5, 5), 2)
            yield None if F.of(qnum(j, cq)) == qnum(j, cf) \
                else ("qnum", qv, j)
            yield None if F.of(f_poly(j, beta, cq)) \
                == f_poly(j, F.of(beta), cf) else ("f_poly", qv, j, beta)
            yield None if F.of(qnum_base(4, qv + 1, cq)) \
                == qnum_base(4, F.of(qv + 1), cf) else ("qnum_base", qv)

    records.append(tally("params.prime-backend-agreement", disagreements()))
    return records


def suite_qdybe(cfg):
    rng = cfg.rng()
    records = []
    regimes = [GENERIC, GENERIC, BETA_INFINITY, CONSTANT_MULTIPARAM]
    for d in range(cfg.draws):
        regime = regimes[d % len(regimes)] if cfg.beta is None else None

        def draw(rng):
            if regime is None:
                params = cfg.draw_params(rng)
            elif regime == CONSTANT_MULTIPARAM:
                params = constant_multiparam(cfg.context(rng))
            else:
                alpha = ["unit", "constant", "geometric"][d % 3]
                params = sample_params(cfg.n, rng, ctx=cfg.context(rng),
                                       regime=regime, alpha=alpha)
            if cfg.corrupt == "beta" and params.beta_chain is not None:
                params = _corrupt_beta(params)
            return params

        params, p = _params_and_point(rng, draw)
        for t in range(cfg.points):
            if t:
                p = sample_point(params, rng)
            pre = "qdybe.d%d.p%d." % (d, t)
            records.extend(prefixed(
                pre, rmatrix.verify_qdybe(params, p)))
            if params.regime in (GENERIC, BETA_INFINITY):
                _, _, recs = rmatrix.diag_inversion(params, p)
                records.extend(prefixed(pre, recs))
        # twist and canonical-shift symmetries on the first point
        if params.regime == GENERIC:
            p = sample_point(params, rng)
            psi = sample_twist(cfg.n, rng, field=params.ctx.field)
            records.extend(prefixed(
                "qdybe.d%d." % d, rmatrix.twist_checks(params, psi, p)))
    # the beta-removing canonical shift, on a crafted pi = q^2 family
    ctx = cfg.context(rng)
    lam = ctx.lam
    try:
        if not lam:
            raise DegenerateParameterError(
                "no canonical shift at q = %s: 1 - q^2 = 0"
                % fmt_scalar(ctx.q))
        beta1 = lam / (1 - ctx.qpow(2))
        chain = [beta1] + [ctx.field.of(Fraction(1))] * (cfg.n - 2)
        params = SLnParams(ctx, chain)
        offs = rmatrix.beta_removal_offsets(params)
        ev = rmatrix.ShiftedEvaluation(params, offs)
        records.append(tally("qdybe.canonical-shift-removes-beta", (
            None if ev.xi(1, 2, pij) == qnum(pij - 1, ctx) / qnum(pij, ctx)
            else pij for pij in range(2, 7))))
    except DegenerateParameterError as e:
        records.append(Check("qdybe.canonical-shift-removes-beta", None,
                             str(e)))
    return records


def suite_hecke(cfg):
    rng = cfg.rng()
    records = []
    n = cfg.n
    k = n + 1
    ctx = cfg.context(rng)
    crep = hecke.HeckeRep.constant(n, ctx, k)

    def draw(rng):
        params = cfg.draw_params(rng)
        return _corrupt_beta(params) if cfg.corrupt == "beta" else params

    # the global conjugation evaluates R at p + v(I), |I| = k, and the
    # dynamic images dress that with up to k - 2 further shifts
    params, p = _params_and_point(rng, draw, clearance=2 * k - 2)
    drep = hecke.HeckeRep.dynamic(params, p, k)
    lrep = hecke.HeckeRep.localized_last(params, p, k)

    for label, rep in (("constant", crep), ("dynamic", drep),
                       ("localized-last", lrep)):
        records.append(tally("hecke.relations.%s" % label,
                             rep.failed_relations()))
        height = hecke.height(rep)
        records.append(Check("hecke.height.%s" % label, height == n,
                             "no height" if height is None else height))
        records.extend(prefixed("hecke.%s." % label,
                                hecke.top_vanish_equivalents(rep, n)))
        records.append(tally("hecke.antisym-props.%s" % label,
                             hecke.antisym_props(rep, min(n + 1, k))))

    # rank oracle against the undeformed antisymmetrizer
    def rank_errors():
        for j in range(1, n + 1):
            expected = hecke.classical_antisym_rank(n, j, k)
            for label, rep in (("constant", crep), ("dynamic", drep)):
                rank = hecke.antisym(rep, 1, j).exact_rank()
                yield None if rank == expected else (label, j, rank)

    records.append(tally("hecke.rank-oracle", rank_errors()))

    records.extend(prefixed("hecke.dynamic.", hecke.inner_automorphism_check(
        drep, 1, min(n - 1, k - 2))))
    # only g_1 is localized
    records.append(tally("hecke.nonlocality-pattern", (
        None if local is (i == 1) else i
        for i, local in enumerate(hecke.locality_structure(drep), 1))))
    records.append(tally("hecke.localized-last-equivalence",
                         hecke.global_conjugation(params, p, drep, lrep)))
    return records


def suite_epsilon(cfg):
    rng = cfg.rng()
    records = []
    n = cfg.n
    ctx = cfg.context(rng)

    cket = levicivita.build_eps_const(n, ctx, levicivita.CONTRA)
    cbra = levicivita.build_eps_const(n, ctx, levicivita.CO)
    if cfg.corrupt == "eps-sign":
        # negate the first component
        t0, _, v0 = cket.first_nonzero()
        cket = cket - TensorOp.from_entries(n, n, 0, [(t0, (), 2 * v0)],
                                            ctx.field)
    crep = hecke.HeckeRep.constant(n, ctx, n)
    records.extend(prefixed("epsilon.const.", levicivita.eigencheck(
        crep, cket, cbra) + levicivita.window_shift_relations_const(n, ctx)))

    for d in range(cfg.draws):
        params, p = _params_and_point(rng, cfg.draw_params)
        pre = "epsilon.d%d." % d
        drep = hecke.HeckeRep.dynamic(params, p, n)
        dket = levicivita.build_eps_dyn(params, p, levicivita.CONTRA)
        dbra = levicivita.build_eps_dyn(params, p, levicivita.CO)
        records.extend(prefixed(pre, levicivita.eigencheck(drep, dket, dbra)
                                + levicivita.normalization_check(params, p)))
        try:
            nk = levicivita.build_nk(params, p)
        except DegenerateParameterError as e:
            # the window-shift relations read N and K: skip them here
            records.append(Check(pre + "nk-closed-form", False, str(e)))
            records.extend(Check(pre + "window-shift.dyn-" + way, None,
                                 "skipped: no N(p), K(p): %s" % e)
                           for way in ("down", "up"))
            continue
        records.append(Check(pre + "nk-closed-form", True))
        records.extend(prefixed(pre, levicivita.window_shift_relations_dyn(
            params, p, nk)))

    # constant-regime reduction and N = K = identity
    cm = constant_multiparam(ctx)
    p0 = WeightPoint(n, tuple(1 for _ in range(n - 1)))
    records.append(tally("epsilon.constant-regime-reduction", (
        mismatch(levicivita.build_eps_dyn(cm, p0, variance),
                 levicivita.build_eps_const(n, ctx, variance), variance)
        for variance in (levicivita.CONTRA, levicivita.CO))))
    nk = levicivita.build_nk_const(n, ctx)
    records.append(tally("epsilon.constant-nk-identity", (
        None if v == 1 else (name, i, v)
        for name, vals in (("N", nk.nvals), ("K", nk.kvals))
        for i, v in enumerate(vals, 1))))

    # projectors match the antisymmetrizer tower
    params, p = _params_and_point(rng, cfg.draw_params, clearance=n + 1)
    k = n + 1
    drep = hecke.HeckeRep.dynamic(params, p, k)

    def projector(w):
        proj = levicivita.projector_from_eps(params, p, w, k)
        return mismatch(proj, hecke.antisym(drep, w, w + n - 1), w) \
            or mismatch(proj * proj, proj, w)

    records.append(tally("epsilon.projector-vs-antisymmetrizer",
                         (projector(w) for w in (1, 2))))
    return records


def suite_appendix(cfg):
    rng = cfg.rng()
    records = []
    size = max(6, cfg.n)
    ctx = cfg.context(rng)
    params, p = _params_and_point(rng, lambda rng: sample_params(
        size, rng, ctx=QContext(ctx.q, size, field=ctx.field)))
    table = levicivita.xi_table(params, p)
    if cfg.corrupt == "xi":
        table[(1, 2)] = table[(1, 2)] + 1
    subsets = [tuple(range(1, k + 1)) for k in range(1, 7)]
    records.extend(prefixed("appendix.base-d-q.",
                            levicivita.bruteforce_norm_identities(
                                table, params.ctx, subsets=subsets)))
    d = params.ctx.field.of(Fraction(7, 3))
    records.extend(prefixed("appendix.generic-d.",
                            levicivita.bruteforce_norm_identities(
                                table, params.ctx, d=d, subsets=subsets)))
    records.append(tally("appendix.xi-only-hypotheses",
                         levicivita.xi_only_hypotheses(table, params.ctx)))

    # cycle reversal up to length 5 and the pi ratio
    def b(i, j):
        return params.ctx.q - table[(i, j)]

    def reversal(idx):
        """None, or the cycle idx where prod b along it is not (-1)^k
        times the product along its reversal."""
        k = len(idx)
        fwd = bwd = params.ctx.field.one
        for t in range(k):
            fwd = fwd * b(idx[t], idx[(t + 1) % k])
            bwd = bwd * b(idx[(t + 1) % k], idx[t])
        return None if fwd == (-1) ** k * bwd else tuple(idx)

    records.append(tally("appendix.cycle-reversal", (
        reversal(rng.sample(range(1, size + 1), k)) for k in (3, 4, 5))))
    records.extend(prefixed("appendix.", rmatrix.pi_ratio_check(params, p)))
    return records


def suite_qmatrix(cfg):
    records = []
    for d, eng in enumerate(replay_engines(cfg)):
        ds = builtin_derivations(cfg.n)
        if cfg.corrupt == "xunit":
            # sabotage the weight-commute script: drop one shift move so
            # the dressing no longer telescopes (a non-unimodular X)
            bad = dict(ds["D2"])
            bad["moves"] = bad["moves"][:3] + bad["moves"][4:]
            bad["name"] = "det-weight-commute"
            ds = dict(ds)
            ds["D2"] = bad
        for name, deriv in sorted(ds.items()):
            recs = eng.run(deriv)
            status = fold(c.status for c in recs)
            records.append(Check("qmatrix.d%d.%s" % (d, name),
                                 None if status == "skip"
                                 else status == "pass",
                                 [c for c in recs if c.ok is False]))
        if cfg.n == 2 and cfg.field().p is None and d == 0:
            for name, deriv in sorted(ds.items()):
                verdict = oracle_confirm(eng, deriv)
                records.append(Check(
                    "qmatrix.oracle.%s" % name,
                    verdict == "equal" if verdict != "inconclusive"
                    else None,
                    verdict))
    return records


def suite_wznw(cfg):
    rng = cfg.rng()
    records = []

    def route_errors():
        for _ in range(20):
            n = rng.choice([2, 3, 4, 5])
            chain = [rng.randint(-6, 6) for _ in range(n - 1)]
            try:
                wznw.dvec(wznw.WeightVector.from_point(WeightPoint(n, chain)))
            except DegenerateParameterError as e:
                yield chain, str(e)
            else:
                yield None

    records.append(tally("wznw.dimension-two-routes", route_errors()))

    for n in (2, 3, 4):
        field = cfg.field()
        r = field.of(Fraction(3, 2))
        ctx = QContext(r**n, n, root=r, field=field)
        records.extend(prefixed("n%d." % n,
                                wznw.det_normalization_check(n, ctx)))
        if cfg.corrupt == "scale":
            # renormalizing by root^(-2) instead must break the sign
            m_plus = n * (n + 1) // 2
            m_minus = n * (n - 1) // 2
            root2 = ctx.qpow(Fraction(2, n))
            prod = (ctx.q / root2) ** m_plus * (-ctx.qbar / root2) ** m_minus
            records.append(Check(
                "n%d.wznw.determinant-sign-wrong-scale" % n,
                prod == field.of((-1) ** m_minus), prod))

    rngg = random.Random(cfg.seed + 7)
    params = fixed_params(2, 4, 2, "infinity", "unit", cfg.field())
    p = sample_point(params, rngg)
    records.extend(prefixed("beta-infinity.",
                            wznw.reconcile_diag_gauge(params, p)))
    gen, p = _params_and_point(rngg, lambda rng: sample_params(
        cfg.n, rng, ctx=cfg.context(rng)))
    for c in wznw.reconcile_diag_gauge(gen, p):
        if c.id == "wznw.gauge-exact-match":
            c = Check(c.id + ".mismatch-reported",
                      not c.ok or gen.regime == BETA_INFINITY,
                      "an exact match in the %s regime" % gen.regime)
        records.extend(prefixed("generic.", [c]))
    return records


# -- report assembly -------------------------------------------------------


#: the suites by name, in the order `run` takes them for "all"
SUITES = {"params": suite_params, "qdybe": suite_qdybe,
          "hecke": suite_hecke, "epsilon": suite_epsilon,
          "appendix": suite_appendix, "qmatrix": suite_qmatrix,
          "wznw": suite_wznw}


def run_suite(name, cfg):
    t0 = time.time()
    try:
        records = SUITES[name](cfg)
    except (PoleError, DegenerateParameterError) as e:
        records = [Check("%s.setup" % name, False, str(e))]
    records = sorted(records, key=lambda c: c.id)
    return {"schema": SCHEMA, "suite": name,
            "status": fold(c.status for c in records),
            "config": cfg.to_json(), "backend": cfg.field().name,
            "records": [c.to_json() for c in records],
            "time_ms": int(1000 * (time.time() - t0))}


def run(cfg, suite="all"):
    """The report of one suite, or of every suite for "all".  A named
    suite that the run's corruption does not break is refused: it would
    run clean and report pass."""
    if suite != "all" and cfg.corrupt is not None \
            and suite not in CORRUPTIONS[cfg.corrupt]:
        broken = CORRUPTIONS[cfg.corrupt]
        raise DegenerateParameterError(
            "corrupt %r breaks only the %s suite%s, not %s"
            % (cfg.corrupt, ", ".join(broken), "s" * (len(broken) > 1),
               suite))
    names = SUITES if suite == "all" else (suite,)
    reports = [run_suite(nm, cfg) for nm in names]
    return {"schema": SCHEMA, "suite": suite,
            "status": fold(r["status"] for r in reports),
            "reports": reports}


def strip_timing(doc):
    """Remove the volatile fields, for byte-identical comparisons."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items()
                if k != "time_ms"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc
