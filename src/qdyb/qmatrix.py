"""Word calculus for the quantum matrix algebra of an n x n matrix a
intertwining a dynamical and a constant braid matrix.

The defining relations are

    R(p)_12 a_1 a_2 = a_1 a_2 R_12           (pair exchange)
    a f(p) = [X f(p) X^(-1)] a               (weight shift)

together with the formal determinant

    det(a) = (1/[n]!) E_[1..n](p) a_1...a_n eps^[1..n]

and its formal inverse.  Expressions are ordered factor words:

* a-slots (one per matrix space; aux spaces route inverses),
* det(a)^m symbols,
* constant tensors (eps, braid words, transports, sigma),
* p-dependent tensors and scalar functions, optionally "dressed":
  crossing an a-slot in space s turns T(p) into the diagonal-in-s family
  T(p - v(i_s)), the concrete residue of X_s T X_s^(-1).

A braid word (the `word` of a `rho` or `rho_dyn` factor) is a list of
[coefficient, letters] terms, applied letter by letter in the Hecke
representation on the factor's spaces, or {"antisym": m}, which
resolves to hecke.antisym(rep, 1, m): the window antisymmetrizer from
that representation's memo (keyed (sign, i, j)), equal to the image of
the word-level recursion because the representation is linear and
multiplicative on free words.

A move rewrites a factor word soundly: the two defining relations and
the det definition are axiomatic; every other rewrite is either verified
numerically at the working sample points (tensor refactorings) or backed
by a certificate.  Every certificate is a derivation registered by name
in CERTIFICATES (det commutation rules, window collapses, inverse
cancellations, the weight push, the reflection exchange), replayed once
per engine and argument set.  A `lemma` move splices exactly what its
certificate proves: it matches the registered derivation's start word
and puts its end word in its place (or the other way round, reversed).

A canonical word has all p-dependence left of every slot and all det
symbols at the right end.  At each sample it evaluates to a
:class:`SpacedTensor`, with slot sockets anonymized to their temporal
positions, whose ints are in the stored form of a
:class:`~qdyb.tensor.TensorOp`: two words are equal when their sockets,
den and int rows are (a rational tensor lifted to F_p against a prime
one).  Field values are formed only for the witness of a difference.
Factors left of the first slot are composed in turn.  The p-independent
rest is cut into runs, each a block of slots and the constants after it;
a run is composed on its own, then onto the word, so no slot broadcasts
the whole word.  Value and errors are those of the left-to-right fold: a
pass over the socket labels raises the fold's collisions, and a run ends
early where it would meet twice a ket label that the fold contracts once.

The independent check is a membership oracle: at each sample point it
puts the degree-k pair-exchange consequences rho_dyn(g_j) M -
M rho_const(g_j), one per coefficient basis matrix M, into the tensor
layer's exact :class:`~qdyb.tensor.Echelon`, and asks whether every
integer slice of the difference of two canonical words lies in their
span.

A :class:`ReplayEngine` memoizes, for as long as it lives, each relation
span per (k, point) and, in the ``eval_p`` memo, the SpacedTensor of
each p-dependent factor at each point, dressed or not, keyed by the
factor's JSON (so its name and args must determine its tensor) and the
point's chain.  A dressed factor is assembled, by row and column maps on
stored ints, from its undressed blocks at the shifted points, which come
from the same memo.  Canonical words are evaluated afresh each time.
"""

import itertools
import json
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .checks import Check, fold
from .scalars import DegenerateParameterError, fmt_scalar, qfact, qnum
from .tensor import (TensorOp, _assemble, _common_field, _raw_form,
                     _rows_over, _stored_form, _value, flat_index,
                     multi_index)
from .hecke import HeckeRep, HeckeWord, antisym
from .levicivita import CO, CONTRA, build_eps_const, build_eps_dyn, build_nk
from .rmatrix import DynRMatrix, build_dj


class MoveError(ValueError):
    """A move failed to apply; carries the step index when replaying."""


def _label_key(label):
    return (0, label, 0) if isinstance(label, int) else (1,) + label[:1] + label[1:]


def _sorted_labels(labels):
    return tuple(sorted(labels, key=_label_key))


def _picker(out, labels):
    """The map from a tuple of indices, one per label of `labels`, to the
    tuple of its indices at the labels `out` (the first of a repeated
    label)."""
    positions = [labels.index(s) for s in out]
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        at = positions[0]
        return lambda t: (t[at],)
    return lambda t: ()


def _composed_labels(kets, bras, other_kets, other_bras):
    """(shared, kets, bras) of a composite, its open sockets sorted; an
    open label met twice on one side raises the collision MoveError."""
    shared = [s for s in bras if s in other_kets]
    kets = list(kets)
    for s in other_kets:
        if s not in shared:
            if s in kets:
                raise MoveError("ket collision at %r" % (s,))
            kets.append(s)
    bras = [s for s in bras if s not in shared]
    for s in other_bras:
        if s in bras:
            raise MoveError("bra collision at %r" % (s,))
        bras.append(s)
    return shared, _sorted_labels(kets), _sorted_labels(bras)


class SpacedTensor:
    """A sparse exact tensor with labeled ket (row) and bra (column)
    sockets.

    Labels are ints (matrix spaces) or ("sr", t)/("sc", t) pairs marking
    the row/column of the t-th temporal a-slot in a canonical word.  The
    labels are kept sorted, and ``rows`` maps a tuple of ket indices, one
    per ket label in that order, to {tuple of bra indices: int}.  The
    ints, ``den`` and ``p`` are in the stored form of a
    :class:`~qdyb.tensor.TensorOp`.
    """

    __slots__ = ("kets", "bras", "rows", "den", "p")

    def __init__(self, kets=(), bras=(), rows=None):
        """rows: {ket tuple: {bra tuple: value}} with int, Fraction or
        ModInt values, keyed in the sorted label order."""
        self.kets = _sorted_labels(kets)
        self.bras = _sorted_labels(bras)
        self.rows, self.den, self.p = _stored_form(*_raw_form(rows or {}))

    @classmethod
    def _make(cls, kets, bras, rows, den=1, p=None):
        """A tensor over int rows, as :meth:`TensorOp._make`; kets and
        bras are sorted already."""
        st = cls.__new__(cls)
        st.kets, st.bras = kets, bras
        st.rows, st.den, st.p = _stored_form(rows, den, p)
        return st

    @classmethod
    def scalar(cls, value):
        return cls((), (), {(): {(): value}})

    @classmethod
    def diagonal(cls, ket, bra, values):
        """The tensor sending bra index i to ket index i with values[i-1]."""
        return cls((ket,), (bra,), {(i,): {(i,): v}
                                    for i, v in enumerate(values, 1)})

    @classmethod
    def from_tensorop(cls, op, ket_labels, bra_labels):
        ket_labels = tuple(ket_labels)
        bra_labels = tuple(bra_labels)
        assert len(ket_labels) == op.rk and len(bra_labels) == op.ck
        kets = _sorted_labels(ket_labels)
        bras = _sorted_labels(bra_labels)
        ket_of = _picker(kets, ket_labels)
        bra_of = _picker(bras, bra_labels)
        n = op.n
        cols = {c for row in op.rows.values() for c in row}
        return cls._make(kets, bras, *_assemble([(
            op, {r: ket_of(multi_index(r, n, op.rk)) for r in op.rows},
            {c: bra_of(multi_index(c, n, op.ck)) for c in cols})]))

    def compose(self, other):
        """self * other: contract self's bras against other's kets on
        matching labels; everything else stays open."""
        shared, out_kets, out_bras = _composed_labels(
            self.kets, self.bras, other.kets, other.bras)
        # index plans: the contraction key of each side, and the output
        # sockets of ak + bk and of bb + ab (an open ket comes from self
        # first, an open bra from other)
        a_key = _picker(shared, self.bras)
        b_key = _picker(shared, other.kets)
        ket_of = _picker(out_kets, self.kets + other.kets)
        bra_of = _picker(out_bras, other.bras + self.bras)

        arows, aden, brows, bden, p = _common_field(self, other)
        grouped = {}
        for bk, brow in brows.items():
            grouped.setdefault(b_key(bk), []).append((bk, brow))
        rows = {}
        for ak, arow in arows.items():
            for ab, va in arow.items():
                for bk, brow in grouped.get(a_key(ab), ()):
                    kk = ket_of(ak + bk)
                    dst = rows.get(kk)
                    if dst is None:
                        dst = rows[kk] = {}
                    get = dst.get
                    for bb, vb in brow.items():
                        kb = bra_of(bb + ab)
                        dst[kb] = get(kb, 0) + va * vb
        return SpacedTensor._make(out_kets, out_bras, rows, aden * bden, p)

    def __eq__(self, other):
        if not isinstance(other, SpacedTensor) or self.kets != other.kets \
                or self.bras != other.bras:
            return False
        arows, aden, brows, bden, _ = _common_field(self, other)
        return aden == bden and arows == brows

    def first_difference(self, other):
        """(key, value, value) at the first (ket, bra) key where the two
        tensors differ, None for a value not stored; None when equal."""
        arows, aden, brows, bden, p = _common_field(self, other)
        va, vb = ({(k, b): _value(v, den, p)
                   for k, row in rows.items() for b, v in row.items()}
                  for rows, den in ((arows, aden), (brows, bden)))
        for key in set(va) | set(vb):
            if va.get(key) != vb.get(key):
                return (key, va.get(key), vb.get(key))
        return None

    def __repr__(self):
        return "SpacedTensor(kets=%s, bras=%s, nnz=%d)" % (
            list(self.kets), list(self.bras),
            sum(len(row) for row in self.rows.values()))


UNIT = SpacedTensor.scalar(1)


# -- shiftable scalar functions -------------------------------------------


class ShiftFunc:
    """A product of shiftable atoms times a constant.

    Atom kinds (all functions of one weight difference p_ij + offset):
    "f" (the recursion solution with beta_ij), "alpha", "phi" (the
    discrete antiderivative of alpha), "qnum" ([p_ij + offset]), and
    "qp" (q^(p_ij + offset)).  Exponents are integers.
    """

    __slots__ = ("coef", "atoms")

    def __init__(self, coef=Fraction(1), atoms=None):
        self.coef = coef
        self.atoms = {}
        if atoms:
            for key, e in atoms.items():
                if e:
                    self.atoms[key] = self.atoms.get(key, 0) + e

    def shifted(self, m, sign):
        atoms = {}
        for (kind, i, j, off), e in self.atoms.items():
            d = sign * ((1 if m == i else 0) - (1 if m == j else 0))
            key = (kind, i, j, off + d)
            atoms[key] = atoms.get(key, 0) + e
        return ShiftFunc(self.coef, atoms)

    def eval(self, params, p):
        v = params.ctx.field.of(self.coef)
        for (kind, i, j, off), e in self.atoms.items():
            x = p.p(i, j) + off
            if kind == "f":
                a = params.f(i, j, x)
            elif kind == "alpha":
                a = params.alpha(i, j, x)
            elif kind == "phi":
                a = params.alpha.phi(i, j, x)
            elif kind == "qnum":
                a = qnum(x, params.ctx)
            elif kind == "qp":
                a = params.ctx.qpow(x)
            else:
                raise DegenerateParameterError("unknown atom %r" % kind)
            v = v * a**e
        return v

    def to_json(self):
        return {"coef": str(self.coef),
                "atoms": [[k[0], k[1], k[2], k[3], e]
                          for k, e in sorted(self.atoms.items())]}

    @classmethod
    def from_json(cls, doc):
        return cls(Fraction(doc["coef"]),
                   {(a[0], a[1], a[2], a[3]): a[4] for a in doc["atoms"]})


# -- factors ---------------------------------------------------------------


class FSlot:
    __slots__ = ("space",)

    def __init__(self, space):
        self.space = space

    def to_json(self):
        return {"kind": "slot", "space": self.space}

    def __repr__(self):
        return "a[%s]" % (self.space,)


class FDet:
    __slots__ = ("power",)

    def __init__(self, power):
        self.power = power

    def to_json(self):
        return {"kind": "det", "power": self.power}

    def __repr__(self):
        return "det^%d" % self.power


class FConst:
    """A constant tensor factor; `name`/`args` keep it serializable."""

    __slots__ = ("name", "args", "st")

    def __init__(self, name, args, st):
        self.name = name
        self.args = args
        self.st = st

    @property
    def spaces(self):
        return set(self.st.kets) | set(self.st.bras)

    def to_json(self):
        return {"kind": "const", "name": self.name, "args": self.args}

    def __repr__(self):
        return "%s%r" % (self.name, tuple(self.args.values()))


class FP:
    """A p-dependent tensor factor: named builder plus dressings.

    `dress` is a tuple of (space, sign) pairs; crossing the slot in
    space s from the right to the left adds (s, -1), the concrete
    residue of the weight-shift relation.
    """

    __slots__ = ("name", "args", "dress")

    def __init__(self, name, args, dress=()):
        self.name = name
        self.args = args
        self.dress = tuple(dress)

    def shifted_across(self, space, sign):
        out = []
        merged = False
        for s, sg in self.dress:
            if s == space and not merged:
                sg += sign
                merged = True
            if sg:
                out.append((s, sg))
        if not merged and sign:
            out.append((space, sign))
        return FP(self.name, self.args, tuple(out))

    def to_json(self):
        return {"kind": "p", "name": self.name, "args": self.args,
                "dress": [list(t) for t in self.dress]}

    def __repr__(self):
        d = "".join("~%s" % (s,) for s, _ in self.dress)
        return "%s%r%s" % (self.name, tuple(self.args.values()), d)


def factor_from_json(doc):
    kind = doc["kind"]
    if kind == "slot":
        return FSlot(doc["space"])
    if kind == "det":
        return FDet(doc["power"])
    if kind == "const":
        return ("const", doc["name"], doc["args"])  # resolved by engine
    if kind == "p":
        return FP(doc["name"], doc["args"],
                  tuple((s, sg) for s, sg in doc.get("dress", ())))
    raise MoveError("bad factor %r" % doc)


class SlotExpr:
    """An ordered word of factors."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)

    def replaced(self, at, take, new_factors):
        return SlotExpr(self.factors[:at] + tuple(new_factors)
                        + self.factors[at + take:])

    def slot_spaces(self):
        return [f.space for f in self.factors if isinstance(f, FSlot)]

    def __repr__(self):
        return " . ".join(repr(f) for f in self.factors)


# -- the replay engine ------------------------------------------------------


def _arg(name, args, key):
    """Argument `key` of a script factor; a malformed script, not a
    failed move, when it is missing."""
    if key not in args:
        raise ValueError("%s factor lacks argument %r" % (name, key))
    return args[key]


def _two_spaces(name, args):
    spaces = list(_arg(name, args, "spaces"))
    if len(spaces) != 2:
        raise ValueError("%s spaces %r must name 2 spaces" % (name, spaces))
    return spaces


class ReplayEngine:
    """Evaluates factors at the sample points, applies moves, replays
    derivations, caches soundness certificates (sub-replays).
    """

    def __init__(self, params, points):
        self.params = params
        self.n = params.n
        self.ctx = params.ctx
        # each point once, in first-seen order
        self.points = list(dict.fromkeys(points))
        self._rmx = DynRMatrix(params)     # R at each point, for every k
        self._reps = {}
        self._nk = {}
        self._certs = {}
        self._p_values = {}     # (factor JSON, p.chain) -> SpacedTensor
        self._spans = {}        # (k, p.chain) -> relation-span Echelon
        self._prime = getattr(self.ctx.field, "p", None)

    # -- named tensor builders ------------------------------------

    def _dyn_rep(self, k, p):
        key = (k, p.chain)
        if key not in self._reps:
            self._reps[key] = HeckeRep.dynamic(self.params, p, k, self._rmx)
        return self._reps[key]

    def _const_rep(self, k):
        key = ("const", k)
        if key not in self._reps:
            self._reps[key] = HeckeRep.constant(self.n, self.ctx, k,
                                                rmat=build_dj(self.n, self.ctx))
        return self._reps[key]

    def _nk_at(self, p):
        if p.chain not in self._nk:
            self._nk[p.chain] = build_nk(self.params, p)
        return self._nk[p.chain]

    def const_factor(self, name, **args):
        st = self._build_const(name, args)
        return FConst(name, args, st)

    def _build_const(self, name, args):
        n, ctx = self.n, self.ctx
        one = ctx.field.one
        if name == "scalar":
            if "sym" in args:
                return SpacedTensor.scalar(self._sym_value(args["sym"]))
            return SpacedTensor.scalar(ctx.field.of(str(args["value"])))
        if name == "delta":
            return SpacedTensor.diagonal(_arg(name, args, "ket"),
                                         _arg(name, args, "bra"), [one] * n)
        if name == "eps_ket":
            w = self._eps_window(name, args)
            op = build_eps_const(n, ctx, CONTRA)
            return SpacedTensor.from_tensorop(op, w, ())
        if name == "eps_bra":
            w = self._eps_window(name, args)
            op = build_eps_const(n, ctx, CO)
            return SpacedTensor.from_tensorop(op, (), w)
        if name == "rho":
            spaces = tuple(_arg(name, args, "spaces"))
            op = rho_image(self._const_rep(len(spaces)),
                           _arg(name, args, "word"), name)
            return SpacedTensor.from_tensorop(op, spaces, spaces)
        if name == "sigma":
            s, t = _two_spaces(name, args)
            op = TensorOp.diagonal(
                n, 2, lambda m: ctx.qpow(2) if m[0] == m[1] else one)
            return SpacedTensor.from_tensorop(op, (s, t), (s, t))
        if name == "rhat":
            s, t = _two_spaces(name, args)
            power = args.get("power", 1)
            op = build_dj(n, ctx)
            if power == -1:
                lam = ctx.lam
                op = op - lam * TensorOp.identity(n, 2, one)
            elif power != 1:
                raise MoveError("rhat power must be +-1")
            return SpacedTensor.from_tensorop(op, (s, t), (s, t))
        raise MoveError("unknown constant %r" % name)

    def _eps_window(self, name, args):
        """The window of an eps factor: exactly n spaces."""
        w = tuple(_arg(name, args, "window"))
        if len(w) != self.n:
            # a malformed script, not a failed move
            raise ValueError("%s window %r must name n = %d spaces"
                             % (name, list(w), self.n))
        return w

    def _sym_value(self, sym):
        """Named q-dependent scalar constants used by the scripts."""
        if not (isinstance(sym, (list, tuple)) and len(sym) == 2
                and type(sym[1]) is int):
            raise ValueError("scalar sym %r must be a [kind, m] pair with "
                             "integer m" % (sym,))
        kind, m = sym
        # [m]! exists for m >= 0 only, and cinv uses [m - 1]!
        least = {"cinv": 1, "cinv_inv": 1, "qfact": 0,
                 "qfact_inv": 0}.get(kind)
        if least is not None and m < least:
            raise ValueError("scalar sym %r needs m >= %d"
                             % (list(sym), least))
        ctx = self.ctx
        if kind == "cinv":
            return ctx.field.of((-1) ** (m - 1)) / qfact(m - 1, ctx)
        if kind == "cinv_inv":
            return qfact(m - 1, ctx) * ctx.field.of((-1) ** (m - 1))
        if kind == "qfact":
            return qfact(m, ctx)
        if kind == "qfact_inv":
            return 1 / qfact(m, ctx)
        if kind == "q":
            return ctx.qpow(m)
        if kind == "rootpow":
            if ctx.root is None:
                raise DegenerateParameterError("scalar needs ctx.root")
            return ctx.qpow(Fraction(m, self.n))
        raise MoveError("unknown scalar symbol %r" % (sym,))

    def eval_p(self, fp, p):
        """Evaluate a p-dependent factor (with dressings) at p."""
        key = (json.dumps(fp.to_json(), sort_keys=True), p.chain)
        val = self._p_values.get(key)
        if val is None:
            val = self._p_values[key] = self._eval_dressed(fp, p)
        return val

    def _eval_dressed(self, fp, p):
        """A dressed factor: for each assignment m of the dress spaces,
        the undressed block at p shifted by m, restricted to index m on
        each dress space it has and extended by the index m on each it
        lacks."""
        dress = fp.dress
        if not dress:
            return self._build_p(fp.name, fp.args, p)
        spaces = [s for s, _ in dress]
        if len(set(spaces)) < len(spaces):
            raise ValueError("dressed factor %s repeats a space in %r"
                             % (fp.name, spaces))
        bare = FP(fp.name, fp.args)
        blocks = []
        for assign in itertools.product(range(1, self.n + 1),
                                        repeat=len(dress)):
            pp = p
            for (s, sg), m in zip(dress, assign):
                for _ in range(abs(sg)):
                    pp = pp.shift(m, 1 if sg > 0 else -1)
            blocks.append((assign, self.eval_p(bare, pp)))
        # every block has the sockets of the undressed factor
        bkets, bbras = blocks[0][1].kets, blocks[0][1].bras
        for s in spaces:
            if (s in bkets) != (s in bbras):
                raise ValueError(
                    "dressed factor %s must be diagonal in space %r, but "
                    "has only a %s there"
                    % (fp.name, s, "ket" if s in bkets else "bra"))
        own = tuple(s for s in spaces if s in bkets)
        ext = tuple(s for s in spaces if s not in bkets)
        kets = _sorted_labels(bkets + ext)
        bras = _sorted_labels(bbras + ext)
        ket_of, bra_of = _picker(kets, bkets + ext), _picker(bras, bbras + ext)
        ket_at, bra_at = _picker(own, bkets), _picker(own, bbras)
        own_of, ext_of = _picker(own, spaces), _picker(ext, spaces)
        parts = []
        for assign, block in blocks:
            want, extra = own_of(assign), ext_of(assign)
            cols = {b for row in block.rows.values() for b in row}
            parts.append((block,
                          {k: ket_of(k + extra) for k in block.rows
                           if ket_at(k) == want},
                          {b: bra_of(b + extra) for b in cols
                           if bra_at(b) == want}))
        return SpacedTensor._make(kets, bras, *_assemble(parts))

    def _build_p(self, name, args, p):
        n, ctx = self.n, self.ctx
        params = self.params
        if name == "func":
            sf = ShiftFunc.from_json(_arg(name, args, "func"))
            return SpacedTensor.scalar(sf.eval(params, p))
        if name == "eps_bra_dyn":
            w = self._eps_window(name, args)
            op = build_eps_dyn(params, p, CO)
            return SpacedTensor.from_tensorop(op, (), w)
        if name == "eps_ket_dyn":
            w = self._eps_window(name, args)
            op = build_eps_dyn(params, p, CONTRA)
            return SpacedTensor.from_tensorop(op, w, ())
        if name == "rho_dyn":
            spaces = tuple(_arg(name, args, "spaces"))
            op = rho_image(self._dyn_rep(len(spaces), p),
                           _arg(name, args, "word"), name)
            return SpacedTensor.from_tensorop(op, spaces, spaces)
        if name == "nk":
            nk = self._nk_at(p)
            vals = nk.nvals if _arg(name, args, "which") == "n" \
                else nk.kvals
            return SpacedTensor.diagonal(_arg(name, args, "ket"),
                                         _arg(name, args, "bra"), vals)
        if name == "kdiag":
            s = _arg(name, args, "space")
            pw = args.get("power", 1)
            return SpacedTensor.diagonal(
                s, s, [k ** pw for k in self._nk_at(p).kvals])
        if name == "ddiag":
            s = _arg(name, args, "space")
            return SpacedTensor.diagonal(s, s, self._dvals(p))
        if name == "dmat":
            return SpacedTensor.diagonal(_arg(name, args, "ket"),
                                         _arg(name, args, "bra"),
                                         self._dvals(p))
        raise MoveError("unknown p-factor %r" % name)

    def _dvals(self, p):
        """Diagonal of the root-gauge weight matrix: pi_in q^(-2 p_i)."""
        n, ctx = self.n, self.ctx
        vals = []
        for i in range(1, n + 1):
            tot = sum(p.p(i, j) for j in range(1, n + 1))
            vals.append(self.params.pi(i, n)
                        * ctx.qpow(Fraction(-2 * tot, n)))
        return vals

    def resolve(self, spec):
        """Factor from a JSON-ish spec (tuples from factor_from_json)."""
        if isinstance(spec, (FSlot, FDet, FConst, FP)):
            return spec
        if isinstance(spec, dict):
            spec = factor_from_json(spec)
        if isinstance(spec, tuple) and spec and spec[0] == "const":
            return self.const_factor(spec[1], **spec[2])
        return spec

    def expr(self, specs):
        return SlotExpr([self.resolve(s) for s in specs])

    # -- canonical evaluation --------------------------------------

    def canonical(self, expr, p):
        """(k, detpow, SpacedTensor) with slot sockets anonymized to
        temporal axes; raises MoveError on non-canonical words.

        Value and errors are those of the left-to-right fold of `compose`,
        evaluated by runs as the module docstring says."""
        acc = run = UNIT        # run: slots, then the factors after them
        t = det = 0
        seen_slot = seen_det = False
        tail = True             # the run has a factor after its slots
        labels = ((), ())       # the fold's sockets
        for f in expr.factors:
            if isinstance(f, FDet):
                det += f.power
                seen_det = True
                continue
            if isinstance(f, FSlot):
                if seen_det:
                    raise MoveError("slot to the right of a det symbol")
                t += 1
                s = f.space
                bras = _sorted_labels((s, ("sr", t), ("sc", t)))
                at = _picker(bras, (s, ("sr", t), ("sc", t)))
                st = SpacedTensor._make((s,), bras, {
                    (r,): {at((c, r, c)): 1 for c in range(1, self.n + 1)}
                    for r in range(1, self.n + 1)}, 1, self._prime)
                seen_slot = True
            elif isinstance(f, FConst):
                # dets commute with constants
                st = f.st
            elif isinstance(f, FP):
                if seen_slot or seen_det:
                    raise MoveError(
                        "p-dependent factor right of a slot or det")
                st = self.eval_p(f, p)
            else:
                raise MoveError("unknown factor %r" % (f,))
            labels = _composed_labels(*labels, st.kets, st.bras)[1:]
            slot = isinstance(f, FSlot)
            if not (tail and slot):
                try:
                    run, tail = run.compose(st), not slot
                    continue
                except MoveError:
                    pass    # a ket label twice in the run, once in the fold
            acc, run, tail = acc.compose(run), st, not slot
        return t, det, acc.compose(run)

    def exprs_equal(self, e1, e2):
        """Exact comparison of canonical forms at every sample point."""
        for p in self.points:
            k1, d1, t1 = self.canonical(e1, p)
            k2, d2, t2 = self.canonical(e2, p)
            if (k1, d1) != (k2, d2):
                return False, ("shape", (k1, d1), (k2, d2))
            if t1.kets != t2.kets or t1.bras != t2.bras:
                return False, ("sockets", t1.kets, t2.kets, t1.bras, t2.bras)
            if t1 != t2:
                return False, ("entry", p.chain, t1.first_difference(t2))
        return True, None

    # -- moves ------------------------------------------------------

    def apply_move(self, expr, move):
        kind = move["move"]
        handler = getattr(self, "_mv_" + kind, None)
        if handler is None:
            raise MoveError("unknown move %r" % kind)
        return handler(expr, move)

    def _trivially_commute(self, a, b):
        if isinstance(a, FConst) and a.st.kets == () and a.st.bras == ():
            return True
        if isinstance(b, FConst) and b.st.kets == () and b.st.bras == ():
            return True
        def spaces(f):
            if isinstance(f, FSlot):
                return {f.space}
            if isinstance(f, FConst):
                return f.spaces
            if isinstance(f, FP):
                return {s for s, _ in f.dress} | self._p_spaces(f)
            return None
        if isinstance(a, FDet) or isinstance(b, FDet):
            other = b if isinstance(a, FDet) else a
            return isinstance(other, FConst)
        if isinstance(a, FSlot) and isinstance(b, FSlot):
            return False
        sa, sb = spaces(a), spaces(b)
        if sa is None or sb is None:
            return False
        if (isinstance(a, FP) and isinstance(b, FSlot)) or \
                (isinstance(b, FP) and isinstance(a, FSlot)):
            return False  # shifting, not swapping
        return not (sa & sb)

    def _p_spaces(self, fp):
        args = fp.args
        if fp.name == "func":
            return set()
        if fp.name in ("eps_bra_dyn", "eps_ket_dyn"):
            return set(args["window"])
        if fp.name == "rho_dyn":
            return set(args["spaces"])
        if fp.name in ("nk", "dmat"):
            return {args["ket"], args["bra"]}
        if fp.name in ("kdiag", "ddiag"):
            return {args["space"]}
        raise MoveError("unknown p-factor %r" % fp.name)

    def _mv_swap(self, expr, move):
        at = move["at"]
        a, b = expr.factors[at], expr.factors[at + 1]
        if not self._trivially_commute(a, b):
            raise MoveError("factors %r and %r do not commute freely"
                            % (a, b))
        return expr.replaced(at, 2, [b, a])

    def _mv_scalar_shift(self, expr, move):
        at = move["at"]
        direction = move.get("dir", "left")
        f = expr.factors[at]
        if not isinstance(f, FP):
            raise MoveError("scalar_shift needs a p-dependent factor")
        if direction == "left":
            if at == 0 or not isinstance(expr.factors[at - 1], FSlot):
                raise MoveError("no slot immediately left")
            s = expr.factors[at - 1].space
            self._shift_legal(f, s)
            return expr.replaced(at - 1, 2,
                                 [f.shifted_across(s, -1), FSlot(s)])
        if at + 1 >= len(expr.factors) or \
                not isinstance(expr.factors[at + 1], FSlot):
            raise MoveError("no slot immediately right")
        s = expr.factors[at + 1].space
        self._shift_legal(f, s)
        return expr.replaced(at, 2, [FSlot(s), f.shifted_across(s, +1)])

    def _shift_legal(self, f, s):
        base = self._p_spaces(f)
        if s in base and f.name not in ("kdiag", "ddiag", "nk", "func"):
            raise MoveError("cannot shift a non-diagonal factor across its "
                            "own space")
        if f.name == "nk" and s in base and f.args["ket"] != f.args["bra"]:
            raise MoveError("transporting nk factor is not diagonal at %r"
                            % (s,))

    def _mv_det_step(self, expr, move):
        at = move["at"]
        f = expr.factors[at]
        if not isinstance(f, FDet):
            raise MoveError("det_step needs a det symbol")
        if at + 1 >= len(expr.factors):
            raise MoveError("det already rightmost")
        nxt = expr.factors[at + 1]
        if isinstance(nxt, FDet):
            m = f.power + nxt.power
            return expr.replaced(at, 2, [FDet(m)] if m else [])
        if isinstance(nxt, FConst):
            return expr.replaced(at, 2, [nxt, f])
        if isinstance(nxt, FP):
            self.require_certificate("det-func-commute")
            return expr.replaced(at, 2, [nxt, f])
        if isinstance(nxt, FSlot):
            self.require_certificate("det-slot-exchange")
            kd = FP("kdiag", {"space": nxt.space, "power": f.power})
            return expr.replaced(at, 2, [kd, nxt, f])
        raise MoveError("cannot step det across %r" % (nxt,))

    def _mv_det_pull(self, expr, move):
        """[a_s, det^m] -> [det^m, K_s^(-m), a_s]."""
        at = move["at"]
        f = expr.factors[at]
        if not isinstance(f, FSlot):
            raise MoveError("det_pull starts at a slot")
        if at + 1 >= len(expr.factors) or \
                not isinstance(expr.factors[at + 1], FDet):
            raise MoveError("no det immediately right of the slot")
        d = expr.factors[at + 1]
        self.require_certificate("det-slot-exchange")
        self.require_certificate("det-func-commute")
        kd = FP("kdiag", {"space": f.space, "power": -d.power})
        return expr.replaced(at, 2, [d, kd, f])

    def _mv_det_pair_insert(self, expr, move):
        """Insert det det^(-1) = 1 (the completion axiom)."""
        at = move["at"]
        return expr.replaced(at, 0, [FDet(1), FDet(-1)])

    def _mv_intertwine(self, expr, move):
        at = move["at"]
        direction = move.get("dir", "lr")
        f = expr.factors[at]
        if direction == "lr":
            if not (isinstance(f, FP) and f.name == "rho_dyn"
                    and not f.dress):
                raise MoveError("intertwine lr needs an undressed rho_dyn")
            spaces = tuple(f.args["spaces"])
            run = self._slot_run(expr, at + 1, spaces)
            const = self.const_factor("rho", word=f.args["word"],
                                      spaces=list(spaces))
            return expr.replaced(at, 1 + len(spaces),
                                 list(expr.factors[at + 1:at + 1 + len(spaces)])
                                 + [const])
        if not (isinstance(f, FConst) and f.name == "rho"):
            raise MoveError("intertwine rl needs a rho constant")
        spaces = tuple(f.args["spaces"])
        start = at - len(spaces)
        if start < 0:
            raise MoveError("no slot run before the rho factor")
        self._slot_run(expr, start, spaces)
        dyn = FP("rho_dyn", {"word": f.args["word"], "spaces": list(spaces)})
        return expr.replaced(start, len(spaces) + 1,
                             [dyn] + list(expr.factors[start:at]))

    def _slot_run(self, expr, start, spaces):
        for off, s in enumerate(spaces):
            idx = start + off
            if idx >= len(expr.factors) or \
                    not isinstance(expr.factors[idx], FSlot) or \
                    expr.factors[idx].space != s:
                raise MoveError("expected slot run %r at %d" % (spaces, start))
        return True

    def _mv_braid_insert(self, expr, move):
        at = move["at"]
        spaces = tuple(move["spaces"])
        self._slot_run(expr, at, spaces)
        word = move["word"]
        inv_word = invert_word_json(word)
        dyn = FP("rho_dyn", {"word": word, "spaces": list(spaces)})
        const = self.const_factor("rho", word=inv_word, spaces=list(spaces))
        return expr.replaced(at, len(spaces),
                             [dyn] + list(expr.factors[at:at + len(spaces)])
                             + [const])

    def _mv_refactor(self, expr, move):
        """Replace a contiguous slot-free run by an equal one; equality
        is verified entrywise at every sample (exactly, for constants).
        With take=0 the payload must compose to an identity tensor."""
        at, take = move["at"], move["take"]
        payload = [self.resolve(s) for s in move["payload"]]
        olds = expr.factors[at:at + take]
        for f in list(olds) + payload:
            if isinstance(f, (FSlot, FDet)):
                raise MoveError("refactor cannot touch slots or dets")
        def product(factors, p):
            acc = UNIT
            for f in factors:
                acc = acc.compose(f.st if isinstance(f, FConst)
                                  else self.eval_p(f, p))
            return acc
        for p in self.points:
            rhs = product(payload, p)
            if take == 0:
                if not _is_identity(rhs, self.n):
                    raise MoveError("inserted factors are not an identity")
                continue
            lhs = product(olds, p)
            if lhs != rhs:
                raise MoveError("refactor not verified: %r"
                                % (lhs.first_difference(rhs),))
        return expr.replaced(at, take, payload)

    def _mv_expand_det(self, expr, move):
        at = move["at"]
        f = expr.factors[at]
        if not isinstance(f, FDet) or f.power < 1:
            raise MoveError("expand_det needs det^m with m >= 1")
        w = tuple(move["window"])
        if len(w) != self.n:
            raise MoveError("window must have n spaces")
        used = set(expr.slot_spaces())
        if used & set(w):
            raise MoveError("window spaces already used by slots")
        inv_fact = self.const_scalar(1 / qfact(self.n, self.ctx))
        pieces = [inv_fact, FP("eps_bra_dyn", {"window": list(w)})] + \
            [FSlot(s) for s in w] + \
            [self.const_factor("eps_ket", window=list(w))]
        rest = [FDet(f.power - 1)] if f.power > 1 else []
        return expr.replaced(at, 1, pieces + rest)

    def const_scalar(self, value):
        return FConst("scalar", {"value": fmt_scalar(value)},
                      SpacedTensor.scalar(value))

    def _mv_fold_det(self, expr, move):
        at = move["at"]
        f = expr.factors[at]
        if not (isinstance(f, FP) and f.name == "eps_bra_dyn"
                and not f.dress):
            raise MoveError("fold_det needs an undressed dynamic bra")
        w = tuple(f.args["window"])
        self._slot_run(expr, at + 1, w)
        ket = expr.factors[at + 1 + len(w)]
        if not (isinstance(ket, FConst) and ket.name == "eps_ket"
                and tuple(ket.args["window"]) == w):
            raise MoveError("fold_det needs the constant ket on the window")
        return expr.replaced(at, len(w) + 2,
                             [self.const_scalar(qfact(self.n, self.ctx)),
                              FDet(1)])

    def _mv_collapse(self, expr, move):
        at = move["at"]
        form = move["form"]
        if form == "bra":
            f = expr.factors[at]
            if not (isinstance(f, FP) and f.name == "eps_bra_dyn"
                    and not f.dress):
                raise MoveError("collapse bra needs the dynamic bra")
            w = tuple(f.args["window"])
            self._slot_run(expr, at + 1, w)
            self.require_certificate("collapse-bra", w)
            return expr.replaced(at, 1 + len(w),
                                 [FDet(1),
                                  self.const_factor("eps_bra", window=list(w))])
        if form == "ket":
            w = tuple(move["window"])
            self._slot_run(expr, at, w)
            ket = expr.factors[at + len(w)]
            if not (isinstance(ket, FConst) and ket.name == "eps_ket"
                    and tuple(ket.args["window"]) == w):
                raise MoveError("collapse ket needs the constant ket")
            self.require_certificate("collapse-ket", w)
            return expr.replaced(at, len(w) + 1,
                                 [FP("eps_ket_dyn", {"window": list(w)}),
                                  FDet(1)])
        raise MoveError("unknown collapse form %r" % form)

    def _mv_lemma(self, expr, move):
        at = move["at"]
        name = move["name"]
        args = move.get("args", {})
        builder = CERTIFICATES.get(name)
        if builder is None:
            raise MoveError("unknown lemma %r" % (name,))
        if not isinstance(args, dict):
            # a malformed script, not a failed move
            raise ValueError("lemma %s args must map argument names to "
                             "values, got %r" % (name, args))
        try:
            d = builder(self.n, args)
        except KeyError as e:
            # a malformed script, not a failed move
            raise ValueError("lemma %s is missing argument %s"
                             % (name, e)) from None
        lhs, rhs = self.expr(d["start"]), self.expr(d["end"])
        if move.get("reverse"):
            lhs, rhs = rhs, lhs
        take = len(lhs.factors)
        got = expr.factors[at:at + take]
        if [f.to_json() for f in got] != [f.to_json() for f in lhs.factors]:
            raise MoveError("lemma %s pattern mismatch at %d" % (name, at))
        self.require_certificate(name, args)
        return expr.replaced(at, take, list(rhs.factors))

    def _mv_normalize(self, expr, move):
        """Drive the word to canonical shape with mechanical moves."""
        guard = 0
        while True:
            guard += 1
            if guard > 4000:
                raise MoveError("normalization does not terminate")
            idx = self._first_violation(expr)
            if idx is None:
                return expr
            expr = self._fix_violation(expr, idx)

    def _first_violation(self, expr):
        fs = expr.factors
        seen_slot_or_det = False
        seen_det_at = None
        for i, f in enumerate(fs):
            if isinstance(f, FSlot):
                if seen_det_at is not None:
                    return seen_det_at
                seen_slot_or_det = True
            elif isinstance(f, FDet):
                if seen_det_at is None:
                    seen_det_at = i
            elif isinstance(f, FP):
                if seen_det_at is not None:
                    return seen_det_at
                if seen_slot_or_det:
                    return i
        # merge split det symbols
        dets = [i for i, f in enumerate(fs) if isinstance(f, FDet)]
        if len(dets) > 1:
            return dets[0]
        if dets and dets[0] != len(fs) - 1 and any(
                not isinstance(g, FConst) for g in fs[dets[0] + 1:]):
            return dets[0]
        return None

    def _fix_violation(self, expr, idx):
        f = expr.factors[idx]
        if isinstance(f, FDet):
            return self._mv_det_step(expr, {"move": "det_step", "at": idx})
        # f is a p-factor right of some slot: walk it leftward
        left = expr.factors[idx - 1]
        if isinstance(left, FSlot):
            return self._mv_scalar_shift(expr, {"move": "scalar_shift",
                                                "at": idx, "dir": "left"})
        if self._trivially_commute(left, f):
            return expr.replaced(idx - 1, 2, [f, left])
        raise MoveError("cannot normalize past %r" % (left,))

    # -- certificates ------------------------------------------------

    def require_certificate(self, name, args=None):
        key = (name, json.dumps(args, sort_keys=True, default=str)
               if args else None)
        if key in self._certs:
            if self._certs[key] is not True:
                raise MoveError("certificate %r previously failed" % (name,))
            return
        self._certs[key] = "running"
        ok = self._establish(name, args)
        self._certs[key] = ok
        if ok is not True:
            raise MoveError("certificate %r failed" % (name,))

    def _establish(self, name, args):
        return fold(c.status for c in self.run(
            CERTIFICATES[name](self.n, args))) == "pass"

    # -- replay -------------------------------------------------------

    def run(self, derivation):
        """Replay a derivation into one record; a failed move's record
        names the move's index."""
        name = derivation.get("name", "derivation")
        try:
            expr = self.expr(derivation["start"])
            for i, mv in enumerate(derivation.get("moves", ())):
                try:
                    expr = self.apply_move(expr, mv)
                except MoveError as e:
                    return [Check("%s.move[%d]" % (name, i), False, str(e))]
            end = self.expr(derivation["end"])
            for i, mv in enumerate(derivation.get("end_moves", ())):
                try:
                    end = self.apply_move(end, mv)
                except MoveError as e:
                    return [Check("%s.end-move[%d]" % (name, i), False,
                                  str(e))]
            return [Check(name, *self.exprs_equal(expr, end))]
        except (MoveError, DegenerateParameterError) as e:
            return [Check(name, False, str(e))]


def rho_image(rep, doc, name):
    """The image in `rep` of the word of factor `name`: a JSON word
    [[coef-string, [letters]], ...] is applied letter by letter, and
    {"antisym": m} (alone or as the one entry of a list) is the window
    antisymmetrizer A(1, m) from the rep's memo."""
    if isinstance(doc, list) and len(doc) == 1 and isinstance(doc[0], dict):
        doc = doc[0]
    if isinstance(doc, dict):
        m = doc.get("antisym")
        if not isinstance(m, int) or not 1 <= m <= rep.k:
            # a malformed script, not a failed move
            raise ValueError("%s word %r needs an antisym size from 1 to "
                             "its %d spaces" % (name, doc, rep.k))
        return antisym(rep, 1, m)
    w = HeckeWord()
    for coef, letters in doc:
        if not all(isinstance(l, int) and 1 <= abs(l) < rep.k
                   for l in letters):
            raise ValueError("%s word letters %r are not generators of "
                             "H_%d" % (name, letters, rep.k))
        w = w + HeckeWord({tuple(letters): rep.ctx.field.of(str(coef))})
    return rep.apply(w)


def invert_word_json(doc):
    """Inverse of a single-word element given as JSON."""
    if not (isinstance(doc, list) and len(doc) == 1
            and isinstance(doc[0], list) and Fraction(str(doc[0][0])) == 1):
        # a malformed script, not a failed move
        raise ValueError("only plain words invert syntactically, got %r"
                         % (doc,))
    return [["1", [-l for l in reversed(doc[0][1])]]]


# -- expression fragments ----------------------------------------------------


def _slot(s):
    return {"kind": "slot", "space": s}


def _det(m):
    return {"kind": "det", "power": m}


def _eps_ket(w):
    return {"kind": "const", "name": "eps_ket", "args": {"window": list(w)}}


def _eps_bra(w):
    return {"kind": "const", "name": "eps_bra", "args": {"window": list(w)}}


def _delta(ket, bra):
    return {"kind": "const", "name": "delta", "args": {"ket": ket, "bra": bra}}


def _sigma(s, t):
    return {"kind": "const", "name": "sigma", "args": {"spaces": [s, t]}}


def _rho(word, spaces):
    return {"kind": "const", "name": "rho",
            "args": {"word": word, "spaces": list(spaces)}}


def _rho_dyn(word, spaces, dress=()):
    return {"kind": "p", "name": "rho_dyn",
            "args": {"word": word, "spaces": list(spaces)},
            "dress": [list(t) for t in dress]}


def _eps_bra_dyn(w, dress=()):
    return {"kind": "p", "name": "eps_bra_dyn", "args": {"window": list(w)},
            "dress": [list(t) for t in dress]}


def _eps_ket_dyn(w, dress=()):
    return {"kind": "p", "name": "eps_ket_dyn", "args": {"window": list(w)},
            "dress": [list(t) for t in dress]}


def _nk(which, ket, bra):
    return {"kind": "p", "name": "nk",
            "args": {"which": which, "ket": ket, "bra": bra}, "dress": []}


def _kdiag(space, power=1, dress=()):
    return {"kind": "p", "name": "kdiag",
            "args": {"space": space, "power": power},
            "dress": [list(t) for t in dress]}


def _ddiag(space, dress=()):
    return {"kind": "p", "name": "ddiag", "args": {"space": space},
            "dress": [list(t) for t in dress]}


def _dmat(ket, bra, dress=()):
    return {"kind": "p", "name": "dmat", "args": {"ket": ket, "bra": bra},
            "dress": [list(t) for t in dress]}


def _func(sf, dress=()):
    return {"kind": "p", "name": "func", "args": {"func": sf.to_json()},
            "dress": [list(t) for t in dress]}


def _gen_word(i=1, power=1):
    return [["1", [i if power > 0 else -i] * abs(power)]]


def _aword(m):
    return {"antisym": m}


def _mv(_kind, **kw):
    d = {"move": _kind}
    d.update(kw)
    return d


def _sym(*parts):
    """A named q-dependent scalar constant: resolved by the engine."""
    return {"kind": "const", "name": "scalar", "args": {"sym": list(parts)}}


def ainv_guts(n, t, u, rest):
    """Factors of det(a) * (inverse of a) with row socket at t, column
    socket at u, inner slots on `rest` (no det symbol carried)."""
    return ([_sym("cinv", n), _eps_bra_dyn(tuple(rest) + (u,))]
            + [_slot(s) for s in rest]
            + [_eps_ket((t,) + tuple(rest))])


def m_guts(n, s, u, rest):
    """Factors of M_s = a_s^(-1) D a_s, inner a on aux space u: the
    inverse block, the diagonal weight matrix, the inner slot, and the
    transport returning the column socket to s."""
    return ([_sym("cinv", n), _det(-1),
             _eps_bra_dyn(tuple(rest) + (u,))]
            + [_slot(r) for r in rest]
            + [_eps_ket((s,) + tuple(rest)), _ddiag(u), _slot(u),
               _delta(u, s)])


# -- builtin derivations ----------------------------------------------------


def derivation_d1_bra(n, window=None):
    """The n-slot block next to the dynamical covariant tensor collapses
    to det(a) times the constant covariant tensor."""
    w = tuple(window) if window else tuple(range(1, n + 1))
    aword = [_aword(n)]
    start = [_eps_bra_dyn(w)] + [_slot(s) for s in w]
    moves = [
        _mv("refactor", at=0, take=1,
            payload=[_eps_bra_dyn(w), _rho_dyn(aword, w)]),
        _mv("intertwine", at=1, dir="lr"),
        _mv("refactor", at=1 + n, take=1,
            payload=[_sym("qfact_inv", n), _eps_ket(w), _eps_bra(w)]),
        _mv("swap", at=1 + n),
        _mv("fold_det", at=0),
    ]
    end = [_det(1), _eps_bra(w)]
    return {"name": "det-intertwine-bra", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": []}


def derivation_d1_ket(n, window=None):
    w = tuple(window) if window else tuple(range(1, n + 1))
    aword = [_aword(n)]
    start = [_slot(s) for s in w] + [_eps_ket(w)]
    moves = [
        _mv("refactor", at=n, take=1, payload=[_rho(aword, w), _eps_ket(w)]),
        _mv("intertwine", at=n, dir="rl"),
        _mv("refactor", at=0, take=1,
            payload=[_sym("qfact_inv", n), _eps_ket_dyn(w), _eps_bra_dyn(w)]),
        _mv("fold_det", at=2),
    ]
    end = [_eps_ket_dyn(w), _det(1)]
    return {"name": "det-intertwine-ket", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": []}


def derivation_d2(n, hfunc=None):
    """det(a) commutes with every shiftable weight function."""
    w = tuple(range(1, n + 1))
    if hfunc is None:
        hfunc = ShiftFunc(Fraction(1),
                          {("f", 1, 2, 0): 1, ("qp", 1, 2, 1): 1})
    start = [_det(1), _func(hfunc)]
    moves = [_mv("expand_det", at=0, window=list(w)),
             _mv("swap", at=n + 2)]
    # walk the function left across the slot block
    for i in range(n + 2, 2, -1):
        moves.append(_mv("scalar_shift", at=i, dir="left"))
    moves.append(_mv("refactor", at=1, take=2,
                     payload=[_func(hfunc), _eps_bra_dyn(w)]))
    moves.append(_mv("fold_det", at=2))
    end = [_func(hfunc), _det(1)]
    return {"name": "det-weight-commute", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": []}


def derivation_d3(n):
    """det(a) a = K(p) a det(a)."""
    w1 = tuple(range(1, n + 1))
    w2 = tuple(range(2, n + 2))
    down_inv = [["1", [-i for i in range(1, n + 1)]]]
    start = [_det(1), _slot(n + 1)]
    moves = [
        _mv("expand_det", at=0, window=list(w1)),
        _mv("swap", at=n + 2),
        # spectator identity on the last site, then the transport of the
        # covariant tensor through the descending word
        _mv("refactor", at=1, take=0, payload=[_delta(n + 1, n + 1)]),
        _mv("refactor", at=1, take=2,
            payload=[_sym("q", 1), _nk("k", n + 1, 1),
                     _eps_bra_dyn(w2, dress=((1, -1),)),
                     _rho_dyn(down_inv, w1 + (n + 1,))]),
        _mv("intertwine", at=4, dir="lr"),
        _mv("refactor", at=4 + n + 1, take=2,
            payload=[_sym("q", -1), _eps_ket(w2), _delta(1, n + 1)]),
        _mv("swap", at=4 + n + 1),  # constant ket up against the slot run
        _mv("collapse", at=5, form="ket", window=list(w2)),
        _mv("scalar_shift", at=5, dir="left"),
        _mv("refactor", at=3, take=2,
            payload=[_sym("qfact", n), _delta(1, 1)]),
    ]
    end = [_nk("k", n + 1, 1), _slot(1), _delta(1, n + 1), _det(1)]
    return {"name": "det-slot-exchange-rule", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": []}


def derivation_inv_cancel_left(n, t, u, rest):
    """det * a^(-1) * a = det * transport (left inverse)."""
    rest = tuple(rest)
    start = ainv_guts(n, t, u, rest) + [_slot(u)]
    moves = [
        _mv("swap", at=2 + len(rest)),  # eps_ket past slot(u)
        _mv("collapse", at=1, form="bra"),
    ]
    end = [_det(1), _delta(t, u)]
    return {"name": "inverse-cancel-left", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": []}


def derivation_d4a(n):
    """a^(-1) a = 1 with the det^(-1) carried explicitly."""
    t, u, rest = 1, n + 1, tuple(range(2, n + 1))
    start = [_sym("cinv", n), _det(-1),
             _eps_bra_dyn(rest + (u,))] + [_slot(s) for s in rest] + \
        [_eps_ket((t,) + rest), _slot(u)]
    moves = [
        _mv("swap", at=3 + len(rest)),
        _mv("collapse", at=2, form="bra"),
        _mv("det_step", at=1),
    ]
    end = [_delta(t, u)]
    return {"name": "inverse-left", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": []}


def derivation_inv_cancel_right(n, t=None, u=None, rest=None):
    """a * a^(-1) = transport (right inverse), det^(-1) carried."""
    t = 1 if t is None else t
    u = n + 1 if u is None else u
    rest = tuple(range(2, n + 1)) if rest is None else tuple(rest)
    start = [_slot(t), _sym("cinv", n), _det(-1),
             _eps_bra_dyn(rest + (u,))] + [_slot(s) for s in rest] + \
        [_eps_ket((t,) + rest)]
    moves = [
        _mv("swap", at=0),
        _mv("det_pull", at=1),
        # [cinv, det(-1), kdiag(t,+1), a_t, bra, a_rest..., ket]
        _mv("scalar_shift", at=4, dir="left"),
        _mv("collapse", at=4, form="ket", window=[t] + list(rest)),
        # [cinv, det(-1), kdiag(t), dressed-bra, eps_ket_dyn, det(1)]
        _mv("refactor", at=3, take=2,
            payload=[_sym("cinv_inv", n), _nk("n", t, u)]),
        _mv("swap", at=2),
        _mv("refactor", at=3, take=2, payload=[_delta(t, u)]),
        _mv("normalize"),
    ]
    end = [_delta(t, u)]
    return {"name": "inverse-right", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": []}


def derivation_inv_cancel_right_detfree(n, t, u, rest):
    """a * (det a^(-1)) = det K^(-1) transport."""
    rest = tuple(rest)
    start = [_slot(t)] + ainv_guts(n, t, u, rest)
    moves = [
        _mv("det_pair_insert", at=1),
        _mv("det_pull", at=0),
        _mv("swap", at=3),   # det(-1) right past cinv scalar
        _mv("lemma", at=2, name="inv_cancel_right",
            args={"t": t, "u": u, "rest": list(rest)}),
        _mv("normalize"),
    ]
    end = [_det(1), _kdiag(t, -1), _delta(t, u)]
    return {"name": "inverse-right-detfree", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": [_mv("normalize")]}


def derivation_cancel_braided(n, t, u, w, rest):
    """(det a^(-1)) R(p)^(-1) a a = det transport a R^(-1)."""
    rest = tuple(rest)
    start = ainv_guts(n, t, u, rest) + [_rho_dyn(_gen_word(1, -1), (u, w)),
                                        _slot(u), _slot(w)]
    moves = [
        _mv("intertwine", at=2 + len(rest) + 1, dir="lr"),
        _mv("lemma", at=0, name="inv_cancel_left",
            args={"t": t, "u": u, "rest": list(rest)}),
        _mv("swap", at=1),  # delta(t,u) past slot(w)
        _mv("normalize"),
    ]
    end = [_det(1), _slot(w), _delta(t, u), _rho(_gen_word(1, -1), (u, w))]
    return {"name": "inverse-cancel-braided", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": [_mv("normalize")]}


def derivation_dpush(n, x, w, u2, rest2):
    """a_x D a_w = a_x a_w M_w: the weight matrix slides right into a
    fresh inverse pair."""
    rest2 = tuple(rest2)
    start = [_ddiag(w, dress=((x, -1),)), _slot(x), _slot(w)]
    end = [_slot(x), _slot(w)] + m_guts(n, w, u2, rest2)
    # cancel the inserted head pair, absorb the transports, then shift
    # the weight matrix across the first slot
    end_moves = [
        _mv("lemma", at=1, name="inv_cancel_right",
            args={"t": w, "u": u2, "rest": list(rest2)}),
        _mv("refactor", at=1, take=2, payload=[_dmat(w, u2)]),
        _mv("normalize"),
    ]
    return {"name": "weight-push", "n": n, "start": start,
            "moves": [_mv("normalize")], "end": end, "end_moves": end_moves}


def derivation_d5_scalar(n):
    """The central candidate det(a) U(p) commutes with weight functions."""
    U = central_u(n)
    h = ShiftFunc(Fraction(1), {("qp", 1, 2, 1): 1, ("f", 1, 2, 1): 1})
    start = [_det(1), _func(U), _func(h)]
    moves = [_mv("swap", at=1), _mv("det_step", at=0), _mv("det_step", at=1)]
    end = [_func(h), _det(1), _func(U)]
    end_moves = [_mv("det_step", at=1)]
    return {"name": "central-weight-commute", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": end_moves}


def central_u(n):
    """U = prod_{i<j} phi_ij(p_ij) / f(p_ij, beta_ij)."""
    atoms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            atoms[("phi", i, j, 0)] = 1
            atoms[("f", i, j, 0)] = -1
    return ShiftFunc(Fraction(1), atoms)


def derivation_d5_slot(n):
    """det(a) U(p) commutes with the generators themselves; the ratio
    condition U(p - v(i)) = U(p) K^i_i(p) enters as the last rewrite."""
    U = central_u(n)
    start = [_det(1), _func(U), _slot(1)]
    moves = [
        _mv("det_step", at=0),
        _mv("det_step", at=1),
        _mv("refactor", at=0, take=2,
            payload=[_func(U, dress=((1, -1),))]),
    ]
    end = [_slot(1), _det(1), _func(U)]
    end_moves = [_mv("normalize")]
    return {"name": "central-slot-commute", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": end_moves}


def derivation_d6_commute(n):
    """[D_2, M_1] = 0 (multiplied by det on the left)."""
    u = 3
    rest = tuple(range(4, n + 3))
    guts = m_guts(n, 1, u, rest)
    start = [_det(1), _ddiag(2)] + guts
    end = [_det(1)] + guts + [_ddiag(2)]
    return {"name": "weights-commute-with-monodromy", "n": n,
            "start": start, "moves": [_mv("normalize")],
            "end": end, "end_moves": [_mv("normalize")]}


def derivation_d6_exchange(n, x=1, w=2, transport=None, u=None, rest=None,
                           u3=None, rest3=None):
    """det M_x a_w = q^(2/n) det a_w R^(-1) M_w R^(-1); the reflection
    exchange relation, det-multiplied.  With `transport`, the outer slot
    lives on w but its column socket is routed to the transport space,
    and the constant braid factors act on (x, transport).  `u`/`rest`
    and `u3`/`rest3` are the aux spaces of M_x (start) and M_w (end);
    by default they begin just above n + 2, x, w and transport, and 2n
    labels later."""
    base = max(n + 3, x + 1, w + 1, (transport or 0) + 1)
    if u is None:
        u, rest = base, range(base + 1, base + n)
    if u3 is None:
        u3, rest3 = base + 2 * n, range(base + 2 * n + 1, base + 3 * n)
    rest, rest3 = tuple(rest), tuple(rest3)
    # the weight push's inner pair lies above every label in use
    u2 = 1 + max((x, w, transport or 0, u, u3) + rest + rest3)
    rest2 = tuple(range(u2 + 1, u2 + n))
    tgt = w if transport is None else transport
    trans = [] if transport is None else [_delta(w, transport)]
    start = [_det(1)] + m_guts(n, x, u, rest) + [_slot(w)] + trans
    g = _gen_word(1)
    ginv = _gen_word(1, -1)
    nm = len(rest)
    # after the det merge the layout is:
    # [0 cinv, 1 bra(R+(u,)), 2.. slots R, 2+nm ket, 3+nm ddiag(u),
    #  4+nm slot(u), 5+nm delta(u,x), 6+nm slot(w), (7+nm transport)]
    moves = [
        _mv("det_step", at=0),          # det past cinv
        _mv("det_step", at=1),          # merge with det(-1)
        _mv("swap", at=5 + nm),         # delta(u,x) past slot(w)
        _mv("braid_insert", at=4 + nm, word=g, spaces=[u, w]),
        _mv("refactor", at=3 + nm, take=2,
            payload=[_rho_dyn(ginv, (u, w)), _sigma(u, w), _ddiag(w)]),
        _mv("refactor", at=4 + nm, take=2,
            payload=[_sym("rootpow", 2), _ddiag(w, dress=((u, -1),))]),
    ]
    # float the q^(2/n) scalar to the very front
    for i in range(4 + nm - 1, -1, -1):
        moves.append(_mv("swap", at=i))
    moves += [
        _mv("lemma", at=5 + nm, name="dpush",
            args={"x": u, "w": w, "u2": u2, "rest2": list(rest2)}),
        _mv("lemma", at=1, name="cancel_braided",
            args={"t": x, "u": u, "w": w, "rest": list(rest)}),
        _mv("normalize"),
    ]
    rinv = {"kind": "const", "name": "rhat",
            "args": {"spaces": [x, tgt], "power": -1}}
    end = [_det(1), _sym("rootpow", 2), _slot(w)] + trans + [rinv] + \
        m_guts(n, tgt, u3, rest3) + [rinv]
    end_moves = [_mv("normalize")]
    return {"name": "reflection-exchange", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": end_moves}


def builtin_derivations(n):
    """The shipped derivation scripts, keyed by their short aliases."""
    out = {
        "D1": derivation_d1_bra(n),
        "D1k": derivation_d1_ket(n),
        "D2": derivation_d2(n),
        "D3": derivation_d3(n),
        "D4": derivation_d4a(n),
        "D4r": derivation_inv_cancel_right(n),
        "D5": derivation_d5_scalar(n),
        "D5a": derivation_d5_slot(n),
        "D6c": derivation_d6_commute(n),
        "D6": derivation_d6_exchange(n),
        "D6r": derivation_d6_reflection(n),
    }
    return out


# every certificate, by name: builder(n, args) -> derivation; a lemma
# move with that name rewrites the derivation's start word into its end
CERTIFICATES = {
    "det-func-commute": lambda n, args: derivation_d2(n),
    "det-slot-exchange": lambda n, args: derivation_d3(n),
    "collapse-bra": derivation_d1_bra,
    "collapse-ket": derivation_d1_ket,
    "inv_cancel_left": lambda n, a: derivation_inv_cancel_left(
        n, a["t"], a["u"], a["rest"]),
    "inv_cancel_right": lambda n, a: derivation_inv_cancel_right(
        n, a["t"], a["u"], a["rest"]),
    "inv_cancel_right_detfree": lambda n, a:
        derivation_inv_cancel_right_detfree(n, a["t"], a["u"], a["rest"]),
    "cancel_braided": lambda n, a: derivation_cancel_braided(
        n, a["t"], a["u"], a["w"], a["rest"]),
    "dpush": lambda n, a: derivation_dpush(
        n, a["x"], a["w"], a["u2"], a["rest2"]),
    "m4b": lambda n, a: derivation_d6_exchange(
        n, a["x"], a["w"], a.get("transport"),
        a["u_l"], a["rest_l"], a["u_r"], a["rest_r"]),
}


# -- membership oracle -------------------------------------------------------


def relation_span(engine, k, p):
    """The echelonized span of the degree-k pair-exchange relation
    consequences { rho_dyn(g_j) M - M rho_const(g_j) } at the working
    point, over the coefficient space Mat(n^k, n^k)."""
    dyn = engine._dyn_rep(k, p)
    const = engine._const_rep(k)
    ident = TensorOp.identity(engine.n, k, engine.ctx.field.one)
    # coefficient functionals transform contravariantly: with D and C the
    # transposed images, (D E_rs)_{x y} = D_{x r} delta_{s y} and
    # (E_rs C)_{x y} = delta_{x r} C_{s y}, so the consequence of E_rs is
    # row r * n^k + s of D^T (x) I - I (x) C
    return TensorOp.echelon(
        dyn.image(j).kron(ident) - ident.kron(const.image(j).transpose())
        for j in range(1, k))


def membership_oracle(engine, expr_a, expr_b, max_dim=1100):
    """Decide whether two canonical words are equal in the algebra, i.e.
    whether their coefficient difference lies in the relation span, at
    every sample point.  Returns 'equal', 'unequal' or 'inconclusive'.
    """
    if engine.n ** len(expr_a.slot_spaces()) > max_dim or \
            engine.n ** len(expr_b.slot_spaces()) > max_dim:
        return "inconclusive"
    for p in engine.points:
        try:
            k, d, ta = engine.canonical(expr_a, p)
            k2, d2, tb = engine.canonical(expr_b, p)
        except MoveError:
            # the word's shape, not the point, decides whether it is
            # canonical, so this happens at the first point or never
            return "inconclusive"
        if (k, d) != (k2, d2):
            return "unequal"
        if set(ta.kets) != set(tb.kets) or set(ta.bras) != set(tb.bras):
            return "unequal"
        span = engine._spans.get((k, p.chain))
        if span is None:
            span = engine._spans[(k, p.chain)] = relation_span(engine, k, p)
        # one integer slice per assignment of the free sockets, indexed
        # row * n^k + column by the slot axes' flat index, on one scale
        # or mod p (both tensors have the same sorted sockets)
        den = 1 if span.p is not None else lcm(ta.den, tb.den)
        free_k = _picker([s for s in ta.kets if not _is_slot_axis(s)],
                         ta.kets)
        free_b = _picker([s for s in ta.bras if not _is_slot_axis(s)],
                         ta.bras)
        slot_of = _picker([("sr", t) for t in range(1, k + 1)]
                          + [("sc", t) for t in range(1, k + 1)], ta.bras)
        slices = {}
        for st, sign in ((ta, 1), (tb, -1)):
            rows, sden = _rows_over(st, span.p)
            scale = sign * (den // sden)
            for kv, row in rows.items():
                fk = free_k(kv)
                for bv, v in row.items():
                    vec = slices.setdefault((fk, free_b(bv)), {})
                    idx = flat_index(slot_of(bv), engine.n)
                    vec[idx] = vec.get(idx, 0) + scale * v
        slices, _, _ = _stored_form(slices, 1, span.p)
        for vec in slices.values():
            if not span.contains(vec):
                return "unequal"
    return "equal"


def _is_slot_axis(label):
    return isinstance(label, tuple) and label and label[0] in ("sr", "sc")


def _is_identity(st, n):
    """True when the spaced tensor is the identity routing on its legs."""
    if set(st.kets) != set(st.bras) or st.den != 1:
        return False
    perm = [st.bras.index(s) for s in st.kets]
    count = 0
    for kv, row in st.rows.items():
        for bv, val in row.items():
            if val != 1 or any(kv[i] != bv[j] for i, j in enumerate(perm)):
                return False
            count += 1
    return count == n ** len(st.kets)


# -- script (de)serialization ------------------------------------------------


def derivation_to_json(d):
    return json.dumps(d, indent=1, sort_keys=True)


def derivation_from_json(text):
    d = json.loads(text)
    for key in ("start", "end"):
        if key not in d:
            raise MoveError("script missing %r" % key)
    d.setdefault("moves", [])
    d.setdefault("end_moves", [])
    d.setdefault("name", "script")
    return d


def derivation_d6_reflection(n):
    """The reflection equation M R^(-1) M R^(-1) = R^(-1) M R^(-1) M,
    det- and slot-multiplied on the left (both multipliers invertible):
    each side reduces through the exchange rule and the inverse
    cancellations to the same canonical word."""
    nm = n - 1
    rinv = {"kind": "const", "name": "rhat",
            "args": {"spaces": [1, 2], "power": -1}}
    b = 4 * n + 4
    u2, r2 = b, tuple(range(b + 1, b + n))
    u3, r3 = b + n, tuple(range(b + n + 1, b + 2 * n))
    u5, r5 = b + 3 * n, tuple(range(b + 3 * n + 1, b + 4 * n))
    u6, r6 = b + 4 * n, tuple(range(b + 4 * n + 1, b + 5 * n))
    # the end side's exchange uses the builtin D6's aux labels: its
    # certificate is then that derivation, whose sub-certificates an
    # engine that ran D6 already holds
    u7, r7 = n + 3, tuple(range(n + 4, 2 * n + 3))
    u4, r4 = 3 * n + 3, tuple(range(3 * n + 4, 4 * n + 3))

    start = [_slot(2), _det(1)] + m_guts(n, 2, u2, r2) + [rinv] + \
        m_guts(n, 2, u3, r3) + [rinv]
    moves = [
        _mv("det_step", at=1),
        _mv("det_step", at=2),
        _mv("lemma", at=0, name="inv_cancel_right_detfree",
            args={"t": 2, "u": u2, "rest": list(r2)}),
        _mv("refactor", at=2, take=2, payload=[_dmat(2, u2)]),
        _mv("det_step", at=0),
        _mv("det_step", at=1),
        _mv("refactor", at=3, take=0,
            payload=[_sym("rootpow", 2), _sym("rootpow", -2)]),
        _mv("swap", at=3), _mv("swap", at=2), _mv("swap", at=1),
        _mv("swap", at=0),
        _mv("lemma", at=3, name="m4b", reverse=True,
            args={"x": 1, "w": u2, "transport": 2,
                  "u_l": u6, "rest_l": list(r6),
                  "u_r": u3, "rest_r": list(r3)}),
        _mv("normalize"),
    ]
    end = [_slot(2), _det(1), rinv] + m_guts(n, 2, u4, r4) + [rinv] + \
        m_guts(n, 2, u5, r5)
    end_moves = [
        _mv("det_pull", at=0),
        _mv("det_step", at=0),
        _mv("refactor", at=2, take=0,
            payload=[_sym("rootpow", 2), _sym("rootpow", -2)]),
        _mv("swap", at=2), _mv("swap", at=1), _mv("swap", at=0),
        _mv("lemma", at=2, name="m4b", reverse=True,
            args={"x": 1, "w": 2,
                  "u_l": u7, "rest_l": list(r7),
                  "u_r": u4, "rest_r": list(r4)}),
        _mv("lemma", at=3 + (n + 6), name="inv_cancel_right",
            args={"t": 2, "u": u5, "rest": list(r5)}),
        _mv("refactor", at=3 + (n + 6), take=2, payload=[_dmat(2, u5)]),
        _mv("normalize"),
    ]
    return {"name": "reflection-equation", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": end_moves}


def _max_space(expr):
    top = 0
    for f in expr.factors:
        if isinstance(f, FSlot):
            top = max(top, f.space)
        elif isinstance(f, FConst):
            top = max([top] + [s for s in f.spaces if isinstance(s, int)])
        elif isinstance(f, FP):
            spaces = [s for s, _ in f.dress]
            top = max([top] + [s for s in spaces if isinstance(s, int)])
    return top


def oracle_confirm(engine, derivation, max_dim=1100):
    """Check a derivation's endpoint equality independently: strip the
    det symbols (multiplying both sides by det where needed, expanding
    the rest through the definition at fresh windows), normalize
    mechanically, and decide equality modulo the relation span."""
    sides = []
    nets = []
    for key in ("start", "end"):
        expr = engine.expr(derivation[key])
        nets.append(sum(f.power for f in expr.factors
                        if isinstance(f, FDet)))
    lift = max(0, -min(nets))
    for key in ("start", "end"):
        expr = engine.expr(derivation[key])
        if lift:
            expr = SlotExpr([FDet(lift)] + list(expr.factors))
        expr = engine.apply_move(expr, {"move": "normalize"})
        guard = 0
        while True:
            guard += 1
            if guard > 50:
                return "inconclusive"
            det_at = next((i for i, f in enumerate(expr.factors)
                           if isinstance(f, FDet)), None)
            if det_at is None:
                break
            if expr.factors[det_at].power < 1:
                return "inconclusive"
            base = max(_max_space(expr),
                       max(engine.n + 1, 0)) + 1
            window = list(range(base, base + engine.n))
            expr = engine.apply_move(expr, {"move": "expand_det",
                                            "at": det_at, "window": window})
            expr = engine.apply_move(expr, {"move": "normalize"})
        sides.append(expr)
    return membership_oracle(engine, sides[0], sides[1], max_dim=max_dim)
