"""Command-line front end.

Subcommands:

  build   construct matrix/tensor dumps from a parameter set
  dump    emit a single named object as JSON
  verify  run a verification suite (exit 0 pass, 1 fail, 2 usage error)
  derive  replay a builtin or scripted derivation
  wznw    print Casimir values, dimension vectors, normalization report

Parameter sets come from --params FILE (JSON) or inline flags; all
randomness is seeded and reports are deterministic modulo timing.
"""

import argparse
import itertools
import json
import sys

from .checks import fold
from .scalars import MAX_WEIGHT, RATIONAL, DegenerateParameterError, PoleError
from .weights import SLnParams, WeightPoint, sample_point
from . import rmatrix, levicivita, verify, wznw
from .qmatrix import builtin_derivations, derivation_from_json

USAGE_ERROR = 2
FAIL = 1
POINTS_HELP = ("sample points per draw; on a prime field where ord(3/2) "
               ">= n * 2^56, a replay engine (derive, the qmatrix suite) "
               "whose alpha is not geometric takes one wide point instead: "
               "the error bound, not --points, sets the count")


def _beta_value(text):
    """--beta text as a params-JSON "beta" value; None when not given."""
    if text in ("inf", "infinity"):
        return "infinity"
    return text.split(",") if text else None


def _params_from_args(args):
    if args.params:
        with open(args.params) as fh:
            return SLnParams.from_json(json.load(fh), RATIONAL)
    if args.q is None:
        raise DegenerateParameterError("need --params or --q")
    return verify.fixed_params(
        args.n, args.q, args.root,
        _beta_value(args.beta) or ["1"] * (args.n - 1), args.alpha, RATIONAL)


def _point_from_args(args, params):
    if args.p:
        # p<i><j> with j = i + 1; the digits of i and j run together
        keys = {"p%d%d" % (i, i + 1): i for i in range(1, params.n)}
        chain = {}
        for item in args.p.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key not in keys:
                raise DegenerateParameterError(
                    "unknown weight %r in --p; expected one of %s"
                    % (key, ", ".join(keys)))
            if keys[key] in chain:
                raise DegenerateParameterError("--p repeats %s" % key)
            try:
                chain[keys[key]] = int(val)
            except ValueError:
                raise DegenerateParameterError(
                    "--p %s = %r must be an integer" % (key, val)) from None
        missing = [key for key, i in keys.items() if i not in chain]
        if missing:
            raise DegenerateParameterError(
                "--p lacks %s" % ", ".join(missing))
        w = WeightPoint(params.n, [chain[i] for i in range(1, params.n)])
        for i, j in itertools.combinations(range(1, params.n + 1), 2):
            pij = w.p(i, j)
            if abs(pij) > MAX_WEIGHT:
                raise DegenerateParameterError(
                    "--p makes p%d%d = %d; each |p_ij| must be at most %d"
                    % (i, j, pij, MAX_WEIGHT))
        return w
    import random
    return sample_point(params, random.Random(args.seed))


def cmd_build(args):
    params = _params_from_args(args)
    p = _point_from_args(args, params)
    out = {
        "params": params.to_json(),
        "point": {"p%d%d" % (i, i + 1): c
                  for i, c in enumerate(p.chain, 1)},
        "rhat_constant": rmatrix.build_dj(params.n, params.ctx).dump(),
        "rhat_dynamical": rmatrix.build_dyn(params, p).dump(),
        "eps_contravariant": levicivita.eps_dump(
            levicivita.build_eps_const(params.n, params.ctx,
                                       levicivita.CONTRA)),
        "eps_covariant": levicivita.eps_dump(
            levicivita.build_eps_const(params.n, params.ctx,
                                       levicivita.CO)),
        "eps_dyn_contravariant": levicivita.eps_dump(
            levicivita.build_eps_dyn(params, p, levicivita.CONTRA)),
        "eps_dyn_covariant": levicivita.eps_dump(
            levicivita.build_eps_dyn(params, p, levicivita.CO)),
    }
    from .hecke import HeckeRep, antisym
    rep = HeckeRep.dynamic(params, p, params.n)
    out["top_antisymmetrizer"] = antisym(rep, 1, params.n).dump()
    _emit(args, out)
    return 0


def cmd_dump(args):
    params = _params_from_args(args)
    p = _point_from_args(args, params)
    name = args.object
    if name == "rhat":
        doc = rmatrix.build_dyn(params, p).dump()
    elif name == "rhat-constant":
        doc = rmatrix.build_dj(params.n, params.ctx).dump()
    elif name == "rhat-inverse":
        doc = rmatrix.invert_dyn(params, p).dump()
    elif name == "eps":
        doc = levicivita.eps_dump(
            levicivita.build_eps_dyn(params, p, levicivita.CONTRA))
    elif name == "eps-co":
        doc = levicivita.eps_dump(
            levicivita.build_eps_dyn(params, p, levicivita.CO))
    elif name == "params":
        doc = params.to_json()
    else:
        print("unknown object %r" % name, file=sys.stderr)
        return USAGE_ERROR
    _emit(args, doc)
    return 0


def cmd_verify(args):
    cfg = verify.RunConfig(
        n=args.n, q=args.q, root=args.root, beta=_beta_value(args.beta),
        alpha=args.alpha, draws=args.draws, points=args.points,
        seed=args.seed, backend=args.backend, corrupt=args.corrupt)
    doc = verify.run(cfg, args.suite)
    _emit(args, doc, text_summary=_verify_summary)
    return 0 if doc["status"] == "pass" else FAIL


def _verify_summary(doc, out):
    for rep in doc.get("reports", [doc] if "records" in doc else []):
        for rec in rep["records"]:
            print("%-4s %s" % (rec["status"].upper(), rec["id"]), file=out)
        print("suite %-10s %s" % (rep["suite"], rep["status"].upper()),
              file=out)
    print("overall:", doc["status"].upper(), file=out)


def cmd_derive(args):
    cfg = verify.RunConfig(n=args.n, draws=1, points=args.points,
                           seed=args.seed, backend=args.backend)
    (eng,) = verify.replay_engines(cfg)
    names = None
    if args.script:
        with open(args.script) as fh:
            derivs = [derivation_from_json(fh.read(), args.n)]
    else:
        ds = builtin_derivations(args.n)
        names = args.builtin.split(",") if args.builtin else sorted(ds)
        unknown = [name for name in names if name not in ds]
        if unknown:
            raise DegenerateParameterError(
                "unknown derivation %s in --builtin; known: %s"
                % (", ".join(map(repr, unknown)), ", ".join(sorted(ds))))
        derivs = [ds[name] for name in names]
    records = [c for d in derivs for c in eng.run(d)]
    doc = {"schema": verify.SCHEMA, "suite": "derive",
           "config": {"n": args.n, "seed": args.seed, "points": args.points,
                      "builtin": names},
           "backend": cfg.field().name,
           "records": [c.to_json() for c in records],
           "status": fold(c.status for c in records)}
    _emit(args, doc, text_summary=lambda d, out: [
        print("%-4s %s" % (r["status"].upper(), r["id"]), file=out)
        for r in d["records"]])
    return 0 if doc["status"] == "pass" else FAIL


def cmd_wznw(args):
    params = _params_from_args(args)
    p = _point_from_args(args, params)
    w = wznw.WeightVector.from_point(p)
    doc = {
        "weights": [str(c) for c in w.p],
        "casimir": str(wznw.casimir(w)),
        "dimensions": [str(d) for d in wznw.dvec(w)],
    }
    if params.ctx.root is not None:
        recs = wznw.det_normalization_check(params.n, params.ctx)
        doc["normalization"] = [c.to_json() for c in recs]
    _emit(args, doc)
    return 0


def _emit(args, doc, text_summary=None):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, default=str)
            fh.write("\n")
        return
    if getattr(args, "format", "json") == "json" or text_summary is None:
        json.dump(doc, sys.stdout, indent=1, sort_keys=True, default=str)
        sys.stdout.write("\n")
    else:
        text_summary(doc, sys.stdout)


def _common(sub, fixed):
    # build, dump and wznw read one parameter set (or file) at one point
    sub.add_argument("--n", type=int, default=2)
    sub.add_argument("--q", help="q as num/den")
    sub.add_argument("--root", help="exact n-th root of q")
    sub.add_argument("--beta", help="comma list or 'infinity'")
    sub.add_argument("--alpha", default="unit", choices=verify.ALPHAS)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--format", default="json", choices=["json", "text"])
    sub.add_argument("--out")
    if fixed:
        sub.add_argument("--params", help="parameter JSON file")
        sub.add_argument("--p", help="weight point, e.g. 'p12=2,p23=1'")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="qdyb",
        description="exact checks for dynamical braid matrices and their "
                    "quantum matrix algebra")
    subs = ap.add_subparsers(dest="command", required=True)

    b = subs.add_parser("build", help="write object dumps")
    _common(b, fixed=True)
    b.set_defaults(fn=cmd_build)

    d = subs.add_parser("dump", help="dump one object")
    _common(d, fixed=True)
    d.add_argument("object",
                   choices=["rhat", "rhat-constant", "rhat-inverse",
                            "eps", "eps-co", "params"])
    d.set_defaults(fn=cmd_dump)

    v = subs.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=list(verify.SUITES) + ["all"])
    _common(v, fixed=False)
    v.add_argument("--draws", type=int, default=5)
    v.add_argument("--points", type=int, default=3, help=POINTS_HELP)
    v.add_argument("--backend", default="rational")
    v.add_argument("--corrupt", choices=list(verify.CORRUPTIONS))
    v.set_defaults(fn=cmd_verify)

    r = subs.add_parser("derive", help="replay derivations")
    r.add_argument("--n", type=int, default=2)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--points", type=int, default=3, help=POINTS_HELP)
    r.add_argument("--backend", default="rational")
    r.add_argument("--builtin", help="comma list, e.g. D1,D3")
    r.add_argument("--script", help="derivation JSON file")
    r.add_argument("--format", default="json", choices=["json", "text"])
    r.add_argument("--out")
    r.set_defaults(fn=cmd_derive)

    w = subs.add_parser("wznw", help="Casimir and dimension report")
    _common(w, fixed=True)
    w.set_defaults(fn=cmd_wznw)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (PoleError,) as e:
        print("dynamical pole: %s" % e, file=sys.stderr)
        return USAGE_ERROR
    except (DegenerateParameterError, OSError, KeyError, AssertionError,
            ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
