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
that representation's memo (keyed (sign, i, j)): the window recursion
run on the generators' images, which is the image of its expansion into
words because a representation is linear and multiplicative.

A script is checked before any replay against one declared schema,
FACTORS, MOVES and SIGNATURES (:func:`derivation_from_json`); replay
reads scripts and the builtins as well formed.

A move rewrites a factor word soundly: the two defining relations and
the det definition are axiomatic; every other rewrite is either verified
numerically at the working sample points (tensor refactorings) or backed
by a certificate.  Every certificate is a derivation registered by name
in CERTIFICATES (det commutation rules, window collapses, inverse
cancellations, the weight push, the reflection exchange), replayed once
per engine and statement up to relabeling of spaces
(:func:`statement_key`).  A `lemma` move splices exactly what its
certificate proves: it matches the registered derivation's start word
and puts its end word in its place (or the other way round, reversed).

A canonical word has all p-dependence left of every slot and all det
symbols at the right end.  At each sample it evaluates to a
:class:`SpacedTensor`, with slot sockets anonymized to their temporal
positions, whose ints are in the stored form of a
:class:`~qdyb.tensor.TensorOp`: two words are equal when their sockets,
den and int rows are, each over the engine's field.  Field values are
formed only for the witness of a difference.
Factors left of the first slot are composed in turn.  The p-independent
rest is cut into runs, each a block of slots and the constants after it;
a run is composed on its own, then onto the word, so no slot broadcasts
the whole word.  Value and errors are those of the left-to-right fold: a
pass over the socket labels raises the fold's collisions, and a run ends
early where it would meet twice a ket label that the fold contracts once.

The independent check is a membership oracle: at each sample point it
asks whether every integer slice of the difference of two canonical
words lies in the span of the degree-k pair-exchange consequences
rho_dyn(g_j) M - M rho_const(g_j), one per coefficient basis matrix M.
It decides each weight block on its own, by pairing the slice with a
basis of the block's intertwiners, the annihilator of that span, which
a nullspace of at most a dozen unknowns and one pass over the block's
columns build (see :func:`block_intertwiners` and
:func:`membership_oracle`).

What depends only on socket labels is planned once per process:
:meth:`SpacedTensor.compose` reads its output sockets and index maps
from a bounded cache keyed by the four label tuples, and the label pass
of ``canonical`` reads the bounded cache of composite sockets behind it.
A collision is never cached, so it raises on every call.

A :class:`ReplayEngine` memoizes, for as long as it lives, the keys of
the statements it has proven, each weight block's intertwiner basis per
(k, point, block), the tensor of each constant factor keyed by its name
and JSON args, the tensor of each a-slot per (space, t) and, in the
``eval_p`` memo, the SpacedTensor of each p-dependent factor at each
point, dressed or not, keyed by the factor's JSON (formed once per
factor, so its name and args must determine its tensor) and the point's
chain.  A dressed factor is assembled, by row and column maps on stored
ints, from its undressed blocks at the shifted points, which come from
the same memo.  Memoized tensors are shared: read them, never change
them.  Canonical words are evaluated afresh each time.  Each fold, in
``canonical`` and in a refactor's check, starts from its first factor,
so no product with the unit is formed; only the empty word is the unit.
"""

import functools
import itertools
import json
from fractions import Fraction
from math import inf, lcm
from operator import itemgetter

from .checks import Check, fold, witness_repr
from .scalars import (MAX_WEIGHT, RATIONAL, DegenerateParameterError,
                      fmt_scalar, parse_scalar, qfact, qnum)
from .tensor import (Echelon, TensorOp, _assemble, _common_field,
                     _raw_form, _stored_form, _value, flat_index,
                     multi_index)
from .hecke import HeckeRep, antisym
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
    at = positions[0] if positions else 0
    return itemgetter(slice(at, at + len(positions)))   # a 1- or 0-tuple


#: entries of each socket-label cache; ``qdyb verify all`` at n = 2 and
#: 3 meets about 300 distinct plans and 500 composite sockets
PLAN_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _composed_labels(kets, bras, other_kets, other_bras):
    """(shared, kets, bras) of a composite, its open sockets sorted; an
    open label met twice on one side raises the collision MoveError (not
    cached, so it raises on every call)."""
    shared = tuple(s for s in bras if s in other_kets)
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


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(kets, bras, other_kets, other_bras):
    """The index plan of a composite: its sorted (kets, bras), the
    contraction key of each side, and the output sockets of ak + bk and
    of bb + ab (an open ket comes from the left side first, an open bra
    from the right)."""
    shared, out_kets, out_bras = _composed_labels(
        kets, bras, other_kets, other_bras)
    return (out_kets, out_bras, _picker(shared, bras),
            _picker(shared, other_kets), _picker(out_kets, kets + other_kets),
            _picker(out_bras, other_bras + bras))


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

    def __init__(self, kets, bras, rows, field):
        """rows: {ket tuple: {bra tuple: value}} with values of field (or
        ints), keyed in the sorted label order."""
        self.kets = _sorted_labels(kets)
        self.bras = _sorted_labels(bras)
        self.rows, self.den, self.p = _stored_form(*_raw_form(rows, field.p))

    @classmethod
    def _make(cls, kets, bras, rows, den, p):
        """A tensor over int rows, as :meth:`TensorOp._make`; kets and
        bras are sorted already."""
        st = cls.__new__(cls)
        st.kets, st.bras = kets, bras
        st.rows, st.den, st.p = _stored_form(rows, den, p)
        return st

    @classmethod
    def scalar(cls, value, field):
        return cls((), (), {(): {(): value}}, field)

    @classmethod
    def diagonal(cls, ket, bra, values, field):
        """The tensor sending bra index i to ket index i with values[i-1]."""
        return cls((ket,), (bra,), {(i,): {(i,): v}
                                    for i, v in enumerate(values, 1)}, field)

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
            {c: bra_of(multi_index(c, n, op.ck)) for c in cols})], op.p))

    def compose(self, other):
        """self * other: contract self's bras against other's kets on
        matching labels; everything else stays open."""
        out_kets, out_bras, a_key, b_key, ket_of, bra_of = _plan(
            self.kets, self.bras, other.kets, other.bras)
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


# -- shiftable scalar functions -------------------------------------------


# the value of each kind of atom at x = p_ij + offset
ATOMS = {
    "f": lambda params, i, j, x: params.f(i, j, x),
    "alpha": lambda params, i, j, x: params.alpha(i, j, x),
    "phi": lambda params, i, j, x: params.alpha.phi(i, j, x),
    "qnum": lambda params, i, j, x: qnum(x, params.ctx),
    "qp": lambda params, i, j, x: params.ctx.qpow(x),
}


class ShiftFunc:
    """A product of shiftable atoms times a constant.

    Atom kinds (all functions of one weight difference p_ij + offset):
    "f" (the recursion solution with beta_ij), "alpha", "phi" (the
    discrete antiderivative of alpha), "qnum" ([p_ij + offset]), and
    "qp" (q^(p_ij + offset)).  Exponents are integers.
    """

    __slots__ = ("coef", "atoms")

    def __init__(self, coef, atoms):
        self.coef = coef
        self.atoms = {key: e for key, e in atoms.items() if e}

    def eval(self, params, p):
        v = params.ctx.field.of(self.coef)
        for (kind, i, j, off), e in self.atoms.items():
            v = v * ATOMS[kind](params, i, j, p.p(i, j) + off)**e
        return v

    def to_json(self):
        return {"coef": str(self.coef),
                "atoms": [[k[0], k[1], k[2], k[3], e]
                          for k, e in sorted(self.atoms.items())]}

    @classmethod
    def from_json(cls, doc):
        """The function of a func factor's argument, as FACTORS types it."""
        return cls(parse_scalar("func coef", doc["coef"], RATIONAL),
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

    __slots__ = ("name", "args", "dress", "_key")

    def __init__(self, name, args, dress=()):
        self.name = name
        self.args = args
        self.dress = tuple(dress)
        self._key = None

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

    @property
    def key(self):
        """The factor's JSON, formed on first use: its key in an
        engine's memo of tensors."""
        if self._key is None:
            self._key = json.dumps(self.to_json(), sort_keys=True)
        return self._key

    def __repr__(self):
        d = "".join("~%s" % (s,) for s, _ in self.dress)
        return "%s%r%s" % (self.name, tuple(self.args.values()), d)


# -- the script schema -------------------------------------------------------

# each factor's arguments and their types, by kind and name (a slot's or
# det's name is its kind, its arguments at the top level).  A key ending
# in "?" may be absent (a factor whose keys all may takes one); a tuple is
# an enum.  Spaces are named by an int "label" or a list of "labels", n of
# them ("window"), n - 1 ("rest") or 2 ("pair"), of the factor's kets and
# bras unless marked "ket" or "bra".  A p factor's "dress" pairs [space,
# sign] have distinct spaces, each both a ket and a bra or neither.
FACTORS = {
    "slot": {"slot": {"space": "label"}},
    "det": {"det": {"power": "int"}},
    "const": {
        "scalar": {"sym?": "sym", "value?": "number"},
        "delta": {"ket": "ket label", "bra": "bra label"},
        "eps_ket": {"window": "ket window"},
        "eps_bra": {"window": "bra window"},
        "rho": {"spaces": "labels", "word": "word"},
        "sigma": {"spaces": "pair"},
        "rhat": {"spaces": "pair", "power?": (1, -1)},
    },
    "p": {
        "func": {"func": "func"},
        "eps_ket_dyn": {"window": "ket window"},
        "eps_bra_dyn": {"window": "bra window"},
        "rho_dyn": {"spaces": "labels", "word": "word"},
        "nk": {"which": ("n", "k"), "ket": "ket label", "bra": "bra label"},
        "kdiag": {"space": "label", "power?": "int"},
        "ddiag": {"space": "label"},
        "dmat": {"ket": "ket label", "bra": "bra label"},
    },
}

# the args each certificate takes as a lemma, typed as in FACTORS (a
# collapse certificate's window comes from the move that requires it)
_ICR = {"t": "label", "u": "label", "rest": "rest"}
SIGNATURES = {
    "det-func-commute": {}, "det-slot-exchange": {},
    "collapse-bra": {}, "collapse-ket": {},
    "inv_cancel_left": _ICR, "inv_cancel_right": _ICR,
    "inv_cancel_right_detfree": _ICR,
    "cancel_braided": dict(_ICR, w="label"),
    "dpush": {"x": "label", "w": "label", "u2": "label", "rest2": "rest"},
    "m4b": {"x": "label", "w": "label", "transport?": "label",
            "u_l": "label", "rest_l": "rest", "u_r": "label",
            "rest_r": "rest"},
}

# each move's keys beside "move", typed as in FACTORS ("index" an int >= 0,
# "word" a braid word on the move's spaces, "plain" of one term of
# coefficient 1); an absent enum is its first value, and a dict enum maps
# each value to the keys it needs.  Lemma args fit SIGNATURES.
MOVES = {
    "swap": {"at": "index"}, "det_step": {"at": "index"},
    "det_pull": {"at": "index"}, "det_pair_insert": {"at": "index"},
    "scalar_shift": {"at": "index", "dir?": ("left", "right")},
    "intertwine": {"at": "index", "dir?": ("lr", "rl")},
    "braid_insert": {"at": "index", "spaces": "labels", "word": "plain word"},
    "refactor": {"at": "index", "take": "index", "payload": "factors"},
    "expand_det": {"at": "index", "window": "window"},
    "fold_det": {"at": "index"},
    "collapse": {"at": "index", "form": {"bra": (), "ket": ("window",)},
                 "window?": "window"},
    "lemma": {"at": "index", "name": tuple(SIGNATURES), "args?": "args",
              "reverse?": (False, True)},
    "normalize": {},
}

# each "sym" [kind, m]: the least m it exists for, and its value
SYMS = {
    "cinv": (1, lambda ctx, n, m: (-1) ** (m - 1) / qfact(m - 1, ctx)),
    "cinv_inv": (1, lambda ctx, n, m: qfact(m - 1, ctx) * (-1) ** (m - 1)),
    "qfact": (0, lambda ctx, n, m: qfact(m, ctx)),
    "qfact_inv": (0, lambda ctx, n, m: 1 / qfact(m, ctx)),
    "q": (-inf, lambda ctx, n, m: ctx.qpow(m)),
    "rootpow": (-inf, lambda ctx, n, m: ctx.qpow(Fraction(m, n))),
}

_LABELS = ("label", "labels", "window", "rest", "pair")


def _label_fields(spec):
    """The (key, type) of each field of a FACTORS entry that names spaces."""
    return [(key.rstrip("?"), t) for key, t in spec.items()
            if isinstance(t, str) and t.split()[-1] in _LABELS]


def _sides(spec, args):
    """The spaces of the kets and of the bras that a factor's args name."""
    kets, bras = set(), set()
    for key, t in _label_fields(spec):
        labels = args[key] if isinstance(args[key], list) else [args[key]]
        if not t.startswith("bra"):
            kets.update(labels)
        if not t.startswith("ket"):
            bras.update(labels)
    return kets, bras


def _spaces(f):
    """The spaces a factor names: by FACTORS, and a p factor's dress."""
    if isinstance(f, FSlot):
        return {f.space}
    if isinstance(f, FDet):
        return set()
    kind, dress = ("p", f.dress) if isinstance(f, FP) else ("const", ())
    return set().union(*_sides(FACTORS[kind][f.name], f.args),
                       (s for s, _ in dress))


def _relabeled(doc, rename):
    """The factor JSON doc, well formed, with each space s as rename(s)."""
    kind = doc["kind"]
    out = args = dict(doc)
    if kind in ("const", "p"):
        args = out["args"] = dict(doc["args"])
    for key, _ in _label_fields(FACTORS[kind][doc.get("name", kind)]):
        v = args[key]
        args[key] = [rename(s) for s in v] if isinstance(v, list) \
            else rename(v)
    if "dress" in doc:
        out["dress"] = [[rename(s), sg] for s, sg in doc["dress"]]
    return out


def statement_key(derivation):
    """The JSON of [start, end] with the space labels renamed 1, 2, ...
    in order of first occurrence; None when a word is malformed.  Two
    statements with one key differ by an injective renaming of spaces,
    under which evaluation is equivariant (labels only name legs)."""
    names = {}

    def rename(s):
        if type(s) is not int:
            raise TypeError("space label %r" % (s,))
        return names.setdefault(s, len(names) + 1)
    try:
        return json.dumps([[_relabeled(f, rename) for f in derivation[key]]
                           for key in ("start", "end")], sort_keys=True)
    except (KeyError, TypeError, ValueError):
        return None


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
        self._proven = set()    # statement keys of the runs that passed
        self._p_values = {}     # (factor JSON, p.chain) -> SpacedTensor
        self._consts = {}       # (name, args JSON) -> SpacedTensor
        self._slots = {}        # (space, t) -> the t-th slot's tensor
        # (k, p.chain, block) -> its intertwiner basis, or None
        self._spans = {}
        self._prime = self.ctx.field.p
        self._unit = SpacedTensor.scalar(self.ctx.field.one, self.ctx.field)

    # -- named tensor builders ------------------------------------

    def _dyn_rep(self, k, p):
        key = (k, p.chain)
        if key not in self._reps:
            self._reps[key] = HeckeRep.dynamic(self.params, p, k, self._rmx)
        return self._reps[key]

    def _const_rep(self, k):
        key = ("const", k)
        if key not in self._reps:
            self._reps[key] = HeckeRep.constant(self.n, self.ctx, k)
        return self._reps[key]

    def _const_columns(self, k):
        """The stored (rows, den) of each transposed constant image
        C_i^T, i < k: column s of C_i is row s of C_i^T."""
        key = ("const columns", k)
        if key not in self._reps:
            transposed = [self._const_rep(k).image(i).transpose()
                          for i in range(1, k)]
            self._reps[key] = [(t.rows, t.den) for t in transposed]
        return self._reps[key]

    def _nk_at(self, p):
        if p.chain not in self._nk:
            self._nk[p.chain] = build_nk(self.params, p)
        return self._nk[p.chain]

    def const_factor(self, name, **args):
        key = (name, json.dumps(args, sort_keys=True))
        st = self._consts.get(key)
        if st is None:
            st = self._consts[key] = self._build_const(name, args)
        return FConst(name, args, st)

    def _build_const(self, name, args):
        n, ctx, field = self.n, self.ctx, self.ctx.field
        one = field.one
        if name == "scalar":
            if "sym" in args:
                kind, m = args["sym"]
                return SpacedTensor.scalar(SYMS[kind][1](ctx, n, m), field)
            return SpacedTensor.scalar(
                parse_scalar("scalar value", args["value"], field), field)
        if name == "delta":
            return SpacedTensor.diagonal(args["ket"], args["bra"], [one] * n,
                                         field)
        if name == "eps_ket":
            op = build_eps_const(n, ctx, CONTRA)
            return SpacedTensor.from_tensorop(op, args["window"], ())
        if name == "eps_bra":
            op = build_eps_const(n, ctx, CO)
            return SpacedTensor.from_tensorop(op, (), args["window"])
        spaces = args["spaces"]         # rho, sigma and rhat
        if name == "rho":
            op = rho_image(self._const_rep(len(spaces)), args["word"])
        elif name == "sigma":
            op = TensorOp.diagonal(
                n, 2, lambda m: ctx.qpow(2) if m[0] == m[1] else one, field)
        else:
            op = build_dj(n, ctx)
            if args.get("power", 1) == -1:
                op = op - ctx.lam * TensorOp.identity(n, 2, field)
        return SpacedTensor.from_tensorop(op, spaces, spaces)

    def eval_p(self, fp, p):
        """Evaluate a p-dependent factor (with dressings) at p."""
        key = (fp.key, p.chain)
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
        return SpacedTensor._make(kets, bras, *_assemble(parts, self._prime))

    def _build_p(self, name, args, p):
        params, field = self.params, self.ctx.field
        if name == "func":
            sf = ShiftFunc.from_json(args["func"])
            return SpacedTensor.scalar(sf.eval(params, p), field)
        if name == "eps_bra_dyn":
            op = build_eps_dyn(params, p, CO)
            return SpacedTensor.from_tensorop(op, (), args["window"])
        if name == "eps_ket_dyn":
            op = build_eps_dyn(params, p, CONTRA)
            return SpacedTensor.from_tensorop(op, args["window"], ())
        if name == "rho_dyn":
            spaces = args["spaces"]
            op = rho_image(self._dyn_rep(len(spaces), p), args["word"])
            return SpacedTensor.from_tensorop(op, spaces, spaces)
        if name == "nk":
            nk = self._nk_at(p)
            vals = nk.nvals if args["which"] == "n" else nk.kvals
            return SpacedTensor.diagonal(args["ket"], args["bra"], vals,
                                         field)
        if name == "kdiag":
            s = args["space"]
            pw = args.get("power", 1)
            return SpacedTensor.diagonal(
                s, s, [k ** pw for k in self._nk_at(p).kvals], field)
        if name == "ddiag":
            s = args["space"]
            return SpacedTensor.diagonal(s, s, self._dvals(p), field)
        if name == "dmat":
            return SpacedTensor.diagonal(args["ket"], args["bra"],
                                         self._dvals(p), field)

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
        """The factor of a JSON factor spec; a factor is its own."""
        if not isinstance(spec, dict):
            return spec
        if spec["kind"] == "slot":
            return FSlot(spec["space"])
        if spec["kind"] == "det":
            return FDet(spec["power"])
        if spec["kind"] == "const":
            return self.const_factor(spec["name"], **spec["args"])
        return FP(spec["name"], spec["args"],
                  tuple((s, sg) for s, sg in spec.get("dress", ())))

    def expr(self, specs):
        return SlotExpr([self.resolve(s) for s in specs])

    # -- canonical evaluation --------------------------------------

    def canonical(self, expr, p):
        """(k, detpow, SpacedTensor) with slot sockets anonymized to
        temporal axes; raises MoveError on non-canonical words.

        Value and errors are those of the left-to-right fold of `compose`,
        evaluated by runs as the module docstring says."""
        acc = run = None        # run: slots, then the factors after them
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
                st = self._slot_tensor(f.space, t)
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
            if run is None:
                run, tail = st, not slot
                continue
            if not (tail and slot):
                try:
                    run, tail = run.compose(st), not slot
                    continue
                except MoveError:
                    pass    # a ket label twice in the run, once in the fold
            acc = run if acc is None else acc.compose(run)
            run, tail = st, not slot
        if run is None:
            return t, det, self._unit
        return t, det, run if acc is None else acc.compose(run)

    def _slot_tensor(self, s, t):
        """The t-th a-slot of a canonical word, in space s: 1 at ket
        s = r and bras s = c, ("sr", t) = r, ("sc", t) = c, for each r
        and c."""
        key = (s, t)
        st = self._slots.get(key)
        if st is None:
            bras = _sorted_labels((s, ("sr", t), ("sc", t)))
            at = _picker(bras, (s, ("sr", t), ("sc", t)))
            st = self._slots[key] = SpacedTensor._make((s,), bras, {
                (r,): {at((c, r, c)): 1 for c in range(1, self.n + 1)}
                for r in range(1, self.n + 1)}, 1, self._prime)
        return st

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
        return getattr(self, "_mv_" + move["move"])(expr, move)

    @staticmethod
    def _at(expr, move, width=1):
        """The move's `at`, checked against the word: the move reads the
        `width` factors from there, or inserts there when width is 0."""
        at, size = move["at"], len(expr.factors)
        if not 0 <= at <= size - width:
            if width:
                need = "factors %d..%d" % (at, at + width - 1)
            else:
                need = "a position 0..%d" % size
            raise MoveError("%s at %d needs %s of a %d-factor word"
                            % (move["move"], at, need, size))
        return at

    def _trivially_commute(self, a, b):
        if any(isinstance(f, FConst) and not (f.st.kets or f.st.bras)
               for f in (a, b)):
            return True
        if isinstance(a, FDet) or isinstance(b, FDet):
            other = b if isinstance(a, FDet) else a
            return isinstance(other, FConst)
        if isinstance(a, FSlot) and isinstance(b, FSlot):
            return False
        sa, sb = _spaces(a), _spaces(b)
        if (isinstance(a, FP) and isinstance(b, FSlot)) or \
                (isinstance(b, FP) and isinstance(a, FSlot)):
            return False  # shifting, not swapping
        return not (sa & sb)

    def _mv_swap(self, expr, move):
        at = self._at(expr, move, 2)
        a, b = expr.factors[at], expr.factors[at + 1]
        if not self._trivially_commute(a, b):
            raise MoveError("factors %r and %r do not commute freely"
                            % (a, b))
        return expr.replaced(at, 2, [b, a])

    def _mv_scalar_shift(self, expr, move):
        at = self._at(expr, move)
        f = expr.factors[at]
        if not isinstance(f, FP):
            raise MoveError("scalar_shift needs a p-dependent factor")
        if move.get("dir", "left") == "left":
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
        base = _spaces(FP(f.name, f.args))
        if s in base and f.name not in ("kdiag", "ddiag", "nk", "func"):
            raise MoveError("cannot shift a non-diagonal factor across its "
                            "own space")
        if f.name == "nk" and s in base and f.args["ket"] != f.args["bra"]:
            raise MoveError("transporting nk factor is not diagonal at %r"
                            % (s,))

    def _mv_det_step(self, expr, move):
        at = self._at(expr, move)
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
        at = self._at(expr, move)
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
        at = self._at(expr, move, 0)
        return expr.replaced(at, 0, [FDet(1), FDet(-1)])

    def _mv_intertwine(self, expr, move):
        at = self._at(expr, move)
        f = expr.factors[at]
        if move.get("dir", "lr") == "lr":
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
        spaces = tuple(move["spaces"])
        at = self._at(expr, move, len(spaces))
        self._slot_run(expr, at, spaces)
        word = move["word"]
        inv_word = [["1", [-l for l in reversed(word[0][1])]]]  # plain
        dyn = FP("rho_dyn", {"word": word, "spaces": list(spaces)})
        const = self.const_factor("rho", word=inv_word, spaces=list(spaces))
        return expr.replaced(at, len(spaces),
                             [dyn] + list(expr.factors[at:at + len(spaces)])
                             + [const])

    def _mv_refactor(self, expr, move):
        """Replace a contiguous slot-free run by an equal one; equality
        is verified entrywise at every sample (exactly, for constants).
        With take=0 the payload must compose to an identity tensor."""
        take = move["take"]
        at = self._at(expr, move, take)
        payload = [self.resolve(s) for s in move["payload"]]
        olds = expr.factors[at:at + take]
        for f in list(olds) + payload:
            if isinstance(f, (FSlot, FDet)):
                raise MoveError("refactor cannot touch slots or dets")
        def product(factors, p):
            sts = [f.st if isinstance(f, FConst) else self.eval_p(f, p)
                   for f in factors]
            return functools.reduce(SpacedTensor.compose, sts) if sts \
                else self._unit
        for p in self.points:
            rhs = product(payload, p)
            if take == 0:
                if not _is_identity(rhs, self.n):
                    raise MoveError("inserted factors are not an identity")
                continue
            lhs = product(olds, p)
            if lhs != rhs:
                raise MoveError("refactor not verified: %s"
                                % witness_repr(lhs.first_difference(rhs)))
        return expr.replaced(at, take, payload)

    def _mv_expand_det(self, expr, move):
        at = self._at(expr, move)
        f = expr.factors[at]
        if not isinstance(f, FDet) or f.power < 1:
            raise MoveError("expand_det needs det^m with m >= 1")
        w = tuple(move["window"])
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
                      SpacedTensor.scalar(value, self.ctx.field))

    def _mv_fold_det(self, expr, move):
        at = self._at(expr, move)
        f = expr.factors[at]
        if not (isinstance(f, FP) and f.name == "eps_bra_dyn"
                and not f.dress):
            raise MoveError("fold_det needs an undressed dynamic bra")
        w = tuple(f.args["window"])
        self._slot_run(expr, at + 1, w)
        self._at(expr, move, len(w) + 2)
        ket = expr.factors[at + 1 + len(w)]
        if not (isinstance(ket, FConst) and ket.name == "eps_ket"
                and tuple(ket.args["window"]) == w):
            raise MoveError("fold_det needs the constant ket on the window")
        return expr.replaced(at, len(w) + 2,
                             [self.const_scalar(qfact(self.n, self.ctx)),
                              FDet(1)])

    def _mv_collapse(self, expr, move):
        at = self._at(expr, move)
        if move["form"] == "bra":
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
        w = tuple(move["window"])
        self._slot_run(expr, at, w)
        self._at(expr, move, len(w) + 1)
        ket = expr.factors[at + len(w)]
        if not (isinstance(ket, FConst) and ket.name == "eps_ket"
                and tuple(ket.args["window"]) == w):
            raise MoveError("collapse ket needs the constant ket")
        self.require_certificate("collapse-ket", w)
        return expr.replaced(at, len(w) + 1,
                             [FP("eps_ket_dyn", {"window": list(w)}), FDet(1)])

    def _mv_lemma(self, expr, move):
        at = self._at(expr, move, 0)
        name, args = move["name"], move.get("args", {})
        if name not in CERTIFICATES:
            raise MoveError("unknown lemma %r" % (name,))
        d = CERTIFICATES[name](self.n, args)
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
        """Replay the certificate unless its statement is proven; a
        failure and the replay guard are keyed by name and args."""
        key = (name, json.dumps(args, sort_keys=True, default=str)
               if args else None)
        if key in self._certs:
            if self._certs[key] is not True:
                raise MoveError("certificate %r previously failed" % (name,))
            return
        derivation = CERTIFICATES[name](self.n, args)
        statement = statement_key(derivation)
        if statement is not None and statement in self._proven:
            self._certs[key] = True
            return
        self._certs[key] = "running"
        ok = fold(c.status for c in self.run(derivation)) == "pass"
        self._certs[key] = ok
        if ok is not True:
            raise MoveError("certificate %r failed" % (name,))

    # -- replay -------------------------------------------------------

    def run(self, derivation):
        """Replay a derivation into one record; a failed move's record
        names the move's index."""
        name = derivation.get("name", "derivation")
        try:
            sides = []
            for word, key, label in (("start", "moves", "move"),
                                     ("end", "end_moves", "end-move")):
                expr = self.expr(derivation[word])
                for i, mv in enumerate(derivation.get(key, ())):
                    try:
                        expr = self.apply_move(expr, mv)
                    except MoveError as e:
                        return [Check("%s.%s[%d]" % (name, label, i), False,
                                      str(e))]
                sides.append(expr)
            check = Check(name, *self.exprs_equal(*sides))
            if check.ok:
                self._proven.add(statement_key(derivation))
            return [check]
        except (MoveError, DegenerateParameterError) as e:
            return [Check(name, False, str(e))]


def rho_image(rep, word):
    """The image in `rep` of a braid word, read as the module docstring
    says."""
    if isinstance(word, list) and len(word) == 1 and isinstance(word[0],
                                                                dict):
        word = word[0]
    if isinstance(word, dict):
        return antisym(rep, 1, word["antisym"])
    return rep.apply([(letters, parse_scalar("word coefficient", coef,
                                             rep.ctx.field))
                      for coef, letters in word])


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


# the weight function of the builtin D2 and of its certificate
D2_FUNC = ShiftFunc(Fraction(1), {("f", 1, 2, 0): 1, ("qp", 1, 2, 1): 1})


def derivation_d2(n, hfunc):
    """det(a) commutes with every shiftable weight function."""
    w = tuple(range(1, n + 1))
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
    ]
    end = [_delta(t, u)]
    return {"name": "inverse-left", "n": n, "start": start,
            "moves": moves, "end": end, "end_moves": []}


def derivation_inv_cancel_right(n, t, u, rest):
    """a * a^(-1) = transport (right inverse), det^(-1) carried."""
    rest = tuple(rest)
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
            "moves": [], "end": end, "end_moves": end_moves}


def derivation_d5_scalar(n):
    """The central candidate det(a) U(p) commutes with weight functions."""
    U = central_u(n)
    h = ShiftFunc(Fraction(1), {("qp", 1, 2, 1): 1, ("f", 1, 2, 1): 1})
    start = [_det(1), _func(U), _func(h)]
    moves = [_mv("det_step", at=0), _mv("det_step", at=1)]
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
    condition U(p - v(i)) = U(p) K^i_i(p) is what makes the two sides'
    evaluations agree."""
    U = central_u(n)
    start = [_det(1), _func(U), _slot(1)]
    moves = [
        _mv("det_step", at=0),
        _mv("det_step", at=1),
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


def d6_aux(n):
    """The aux spaces (u_l, rest_l, u_r, rest_r) of the builtin D6: the
    first just above its n + 2 labels in use, the second 2n later."""
    return (n + 3, tuple(range(n + 4, 2 * n + 3)),
            3 * n + 3, tuple(range(3 * n + 4, 4 * n + 3)))


def derivation_d6_exchange(n, x, w, u_l, rest_l, u_r, rest_r,
                           transport=None):
    """det M_x a_w = q^(2/n) det a_w R^(-1) M_w R^(-1); the reflection
    exchange relation, det-multiplied.  With `transport`, the outer slot
    lives on w but its column socket is routed to the transport space,
    and the constant braid factors act on (x, transport).  `u_l`/`rest_l`
    and `u_r`/`rest_r` are the aux spaces of M_x (start) and M_w (end)."""
    u, rest, u3, rest3 = u_l, tuple(rest_l), u_r, tuple(rest_r)
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
        "D2": derivation_d2(n, D2_FUNC),
        "D3": derivation_d3(n),
        "D4": derivation_d4a(n),
        "D4r": derivation_inv_cancel_right(n, 1, n + 1, range(2, n + 1)),
        "D5": derivation_d5_scalar(n),
        "D5a": derivation_d5_slot(n),
        "D6c": derivation_d6_commute(n),
        "D6": derivation_d6_exchange(n, 1, 2, *d6_aux(n)),
        "D6r": derivation_d6_reflection(n),
    }
    return out


# every certificate, by name: builder(n, args) -> derivation; a lemma
# move with that name rewrites the derivation's start word into its end
CERTIFICATES = {
    "det-func-commute": lambda n, args: derivation_d2(n, D2_FUNC),
    "det-slot-exchange": lambda n, args: derivation_d3(n),
    "collapse-bra": derivation_d1_bra,
    "collapse-ket": derivation_d1_ket,
    "inv_cancel_left": lambda n, a: derivation_inv_cancel_left(n, **a),
    "inv_cancel_right": lambda n, a: derivation_inv_cancel_right(n, **a),
    "inv_cancel_right_detfree": lambda n, a:
        derivation_inv_cancel_right_detfree(n, **a),
    "cancel_braided": lambda n, a: derivation_cancel_braided(n, **a),
    "dpush": lambda n, a: derivation_dpush(n, **a),
    "m4b": lambda n, a: derivation_d6_exchange(n, **a),
}



# -- membership oracle -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _weights(n, k):
    """The weight of each flat index on k sites: its sorted multi-index."""
    return tuple(tuple(sorted(multi_index(r, n, k))) for r in range(n**k))


def _inversions(m):
    return sum(a > b for a, b in itertools.combinations(m, 2))


def block_intertwiners(engine, k, p, block):
    """A basis of the intertwiners of one weight block (A, B) = (wt r,
    wt s) at the working point: the maps Phi from V_B to V_A with
    D_j Phi = Phi C_j for j < k, D_j and C_j the images of g_j in the
    dynamic and the constant representation.  They span the annihilator
    of the block's relation span { D_j M - M C_j }, so a coefficient
    slice of the block lies in the span exactly when it pairs to zero
    with each.  Each Phi is {r * n^k + s: int} on one scale, or mod p.
    None when the representations lack the structure below, or a D_i
    maps V_A out of itself.

    The weight space V_B of the constant (Drinfeld-Jimbo) representation
    is the q-permutation module generated by e_v0, v0 the sorted
    multi-index of B (Dipper-James 1986; Jimbo 1986): C_i e_v0 = q e_v0
    for i in J = {i : v0_i = v0_(i+1)}, and for s in B with a descent at
    i, C_i e_src = c1 e_s + c2 e_src, src being s with sites i and i + 1
    swapped (c1 = 1, c2 = q - qbar).  Both are checked.  An intertwiner
    is then fixed by w = Phi e_v0, which lies in N, the common kernel of
    the D_i - q on V_A over i in J, and gives each column in order of
    inversion count as Phi e_s = (D_i - c2) Phi e_src / c1.  So each w
    of a basis of N gives one Phi_w, and every intertwiner is a
    combination of them (by Frobenius reciprocity each Phi_w is one,
    which :func:`membership_oracle` checks before it relies on it).
    Columns are built as ints over a den of their own, or mod p."""
    n, prime = engine.n, engine._prime
    size = n**k
    wt = _weights(n, k)
    in_a = {r for r in range(size) if wt[r] == block[0]}
    dyn = engine._dyn_rep(k, p)
    ccols = engine._const_columns(k)
    # the rows of V_A of each D_i, which must not leave V_A
    on_a = []
    for i in range(1, k):
        image = dyn.image(i)
        drows, dden = image.rows, image.den
        rows = {x: drows.get(x, {}) for x in in_a}
        if any(y not in in_a for row in rows.values() for y in row):
            return None
        on_a.append((rows, dden))
    v0 = block[1]
    s0 = flat_index(v0, n)
    # N: each row of (D_i - q) dden cden, q = C_i[v0, v0] over cden
    kernel = Echelon((), prime)
    for i in range(1, k):
        if v0[i - 1] != v0[i]:
            continue
        col, cden = ccols[i - 1]
        q = col.get(s0, {})
        if q.keys() != {s0} or _value(q[s0], cden, prime) != engine.ctx.q:
            return None
        rows, dden = on_a[i - 1]
        for x, row in rows.items():
            eq = {y: cden * v for y, v in row.items()}
            eq[x] = eq.get(x, 0) - dden * q[s0]
            kernel.add(_nonzero(eq, prime))
    # each s of B from src, one descent i lower, with the coefficients
    # c1 = C_i[s, src] and c2 = C_i[src, src] over C's den
    steps = []
    for m in sorted((multi_index(s, n, k) for s in range(size)
                     if wt[s] == v0), key=_inversions)[1:]:
        i = next(i for i in range(1, k) if m[i - 1] > m[i])
        src = flat_index(m[:i - 1] + (m[i], m[i - 1]) + m[i + 1:], n)
        s = flat_index(m, n)
        col, cden = ccols[i - 1]
        c = col.get(src, {})
        if s not in c or not c.keys() <= {s, src}:
            return None
        steps.append((s, i, src, c[s], c.get(src, 0), cden))
    basis = []
    for w in kernel.kernel(sorted(in_a)):
        cols = {s0: (w, 1)}
        for s, i, src, c1, c2, cden in steps:
            # Phi e_s = (cden D_i u - c2 dden u) / (c1 dden du), u / du
            # being Phi e_src
            u, du = cols[src]
            rows, dden = on_a[i - 1]
            col = {x: cden * sum(v * u[y] for y, v in row.items() if y in u)
                   - c2 * dden * u.get(x, 0) for x, row in rows.items()}
            if prime is not None:
                inv = pow(c1, -1, prime)
                cols[s] = _nonzero({x: v * inv for x, v in col.items()},
                                   prime), 1
            else:
                col, den, _ = _stored_form({0: col}, c1 * dden * du, None)
                cols[s] = col.get(0, {}), den
        scale = lcm(*(den for _, den in cols.values()))
        basis.append({x * size + s: v * (scale // den)
                      for s, (col, den) in cols.items()
                      for x, v in col.items()})
    return basis


def _nonzero(vec, p):
    """vec without its zeros, reduced mod p when p is set."""
    if p is not None:
        return {i: r for i, v in vec.items() if (r := v % p)}
    return {i: v for i, v in vec.items() if v}


def _pairing(phi, vec, p):
    total = sum(v * phi[i] for i, v in vec.items() if i in phi)
    return total % p if p is not None else total


def _unintertwined(engine, k, p, basis):
    """The first j for which D_j Phi = Phi C_j fails on a Phi of the
    basis, as operators on V^(x)k, or None."""
    size = engine.n**k
    dyn, const = engine._dyn_rep(k, p), engine._const_rep(k)
    for phi in basis:
        rows = {}
        for idx, v in phi.items():
            rows.setdefault(idx // size, {})[idx % size] = v
        op = TensorOp._make(engine.n, k, k, rows, 1, engine._prime)
        for j in range(1, k):
            if dyn.image(j) * op != op * const.image(j):
                return j
    return None


# the largest slot space n^k the oracle decides; a wider word is
# 'inconclusive'
ORACLE_MAX_DIM = 1100


def membership_oracle(engine, expr_a, expr_b):
    """Decide whether two canonical words are equal in the algebra, i.e.
    whether their coefficient difference lies in the relation span, at
    every sample point.  Returns 'equal', 'unequal', 'inconclusive', or
    a 'failed: ...' verdict naming (k, point, block) when the
    intertwiners of a block that tells the words apart are not
    intertwiners after all.

    Both representations conserve weights (index multisets), so the
    consequence of E_rs lies in the block (wt r, wt s): the span is the
    direct sum of its blocks.  A block's slice lies in its span exactly
    when it pairs to zero with each of the block's intertwiners
    (:func:`block_intertwiners`), built only when a difference first
    touches the block.  Zero pairings prove 'equal' whatever the
    dynamic images are; a nonzero one proves 'unequal' once the basis is
    checked to intertwine every generator."""
    if engine.n ** len(expr_a.slot_spaces()) > ORACLE_MAX_DIM or \
            engine.n ** len(expr_b.slot_spaces()) > ORACLE_MAX_DIM:
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
        for (_, _, block), vec in oracle_slices(engine, k, ta, tb).items():
            key = (k, p.chain, block)
            if key not in engine._spans:
                engine._spans[key] = block_intertwiners(engine, k, p, block)
            basis = engine._spans[key]
            if basis is None:
                return "inconclusive"
            if any(_pairing(phi, vec, engine._prime) for phi in basis):
                j = _unintertwined(engine, k, p, basis)
                if j is not None:
                    return ("failed: the intertwiners of block %r at k = %d,"
                            " point %r, miss D_%d Phi = Phi C_%d"
                            % (block, k, p.chain, j, j))
                return "unequal"
    return "equal"


def oracle_slices(engine, k, ta, tb):
    """The difference of two canonical tensors of k slots (with the same
    sockets) as integer slices, one per assignment of the free sockets
    and weight block, keyed (free kets, free bras, block): each indexed
    row * n^k + column by the slot axes' flat index, on one scale or mod
    p, with no zero entry and no empty slice."""
    den = lcm(ta.den, tb.den)
    size = engine.n**k
    wt = _weights(engine.n, k)
    free_k = _picker([s for s in ta.kets if not _is_slot_axis(s)], ta.kets)
    free_b = _picker([s for s in ta.bras if not _is_slot_axis(s)], ta.bras)
    slot_of = _picker([("sr", t) for t in range(1, k + 1)]
                      + [("sc", t) for t in range(1, k + 1)], ta.bras)
    slices = {}
    for st, sign in ((ta, 1), (tb, -1)):
        rows, scale = st.rows, sign * (den // st.den)
        for kv, row in rows.items():
            fk = free_k(kv)
            for bv, v in row.items():
                idx = flat_index(slot_of(bv), engine.n)
                block = (wt[idx // size], wt[idx % size])
                vec = slices.setdefault((fk, free_b(bv), block), {})
                vec[idx] = vec.get(idx, 0) + scale * v
    return _stored_form(slices, 1, engine._prime)[0]


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


#: the integers a script shifts or powers by (an "int" argument, a sym's
#: m, a func atom's offset and exponent, a dress sign), each held or
#: stepped through exactly, lie in -MAX_WEIGHT..MAX_WEIGHT
_WEIGHTS = "in -%d..%d" % (MAX_WEIGHT, MAX_WEIGHT)


def _fault(kind, v, n, owner=None):
    """What is wrong with v as a value of schema type `kind` at n, or
    None: (True, what v must be) for a wrong JSON type, else (False, a
    complaint that shows v).  A braid word acts on the (checked) "spaces"
    of its owner."""
    if not isinstance(kind, str):       # an enum
        if any(v == c and type(v) is type(c) for c in kind):
            return None
        return False, "%r must be %s" % (v, " or ".join(map(repr, kind)))
    base = kind.split()[-1]
    if base in ("int", "index", "label"):
        if type(v) is not int:
            return True, "an integer"
        if base == "index" and v < 0:
            return False, "%d must be >= 0" % v
        if base == "int" and abs(v) > MAX_WEIGHT:
            return False, "%d must be %s" % (v, _WEIGHTS)
    elif base in _LABELS:
        if not (isinstance(v, list) and all(type(s) is int for s in v)):
            return True, "a list of integers"
        size = {"window": n, "rest": n - 1, "pair": 2}.get(base)
        if size is not None and len(v) != size:
            return False, "%r must name %s%d spaces" % (v, {
                "window": "n = ", "rest": "n - 1 = "}.get(base, ""), size)
    elif base == "number":
        try:
            parse_scalar("number", v, RATIONAL)
        except DegenerateParameterError:
            return False, "%r must be a number: an integer or a \"num/den\" " \
                "string" % (v,)
    elif base == "sym":
        if not (isinstance(v, list) and len(v) == 2 and isinstance(v[0], str)
                and v[0] in SYMS and type(v[1]) is int):
            return False, "%r must be a [kind, m] pair with integer m and " \
                "kind one of %s" % (v, ", ".join(SYMS))
        if v[1] < SYMS[v[0]][0]:
            return False, "%r needs m >= %d" % (v, SYMS[v[0]][0])
        if abs(v[1]) > MAX_WEIGHT:
            return False, "%r: m must be %s" % (v, _WEIGHTS)
    elif base == "func":
        return _func_fault(v, n)
    else:
        return _word_fault(v, len(owner["spaces"]), kind == "plain word")
    return None


def _func_fault(v, n):
    """What is wrong with v as the argument of a func factor, or None."""
    if not (isinstance(v, dict) and isinstance(v.get("atoms"), list)):
        return True, "an object with a \"coef\" and a list of \"atoms\""
    coef = v.get("coef")
    if _fault("number", coef, n):
        return False, "coef = %r must be an integer or a \"num/den\" " \
            "string" % (coef,)
    for a in v["atoms"]:
        if not (isinstance(a, list) and len(a) == 5
                and isinstance(a[0], str) and a[0] in ATOMS):
            return False, "atom %r must be [kind, i, j, offset, exponent] " \
                "with kind one of %s" % (a, ", ".join(ATOMS))
        for field, x in zip(("i", "j", "offset", "exponent"), a[1:]):
            label = field in ("i", "j")
            if type(x) is not int or label and not 1 <= x <= n:
                return False, "atom %r: %s = %r must be an integer%s" % (
                    a, field, x, " in 1..n = %d" % n if label else "")
            if abs(x) > MAX_WEIGHT:
                return False, "atom %r: %s = %d must be %s" % (
                    a, field, x, _WEIGHTS)
    return None


def _word_fault(v, k, plain):
    """What is wrong with v as a braid word on k spaces, or None; a plain
    word is one term of coefficient 1."""
    w = v[0] if isinstance(v, list) and len(v) == 1 \
        and isinstance(v[0], dict) else v
    if isinstance(w, dict):
        if set(w) != {"antisym"} or type(w["antisym"]) is not int \
                or not 1 <= w["antisym"] <= k:
            return False, "%r needs an antisym size from 1 to its %d " \
                "spaces" % (w, k)
    elif not isinstance(w, list):
        return False, "%r must be a list of [coef, letters] terms" % (w,)
    for term in w if isinstance(w, list) else ():
        if not (isinstance(term, list) and len(term) == 2
                and isinstance(term[1], list)
                and all(type(l) is int for l in term[1])):
            return False, "term %r must be a [coef, letters] pair with " \
                "integer letters" % (term,)
        if _fault("number", term[0], None):
            return False, "term %r: coefficient %r must be a number: an " \
                "integer or a \"num/den\" string" % (term, term[0])
        if not all(1 <= abs(l) < k for l in term[1]):
            return False, "letters %r are not generators of H_%d" % (
                term[1], k)
    if plain and (isinstance(w, dict) or len(w) != 1
                  or parse_scalar("coefficient", w[0][0], RATIONAL) != 1):
        return False, "%r: only plain words invert syntactically" % (v,)
    return None


def _check_args(args, spec, n, where, lacks, field):
    """ValueError unless args has the keys of spec, or lacks only those
    it marks "?", with values of their types; field(key) names one."""
    for key in args:
        if key not in spec and key + "?" not in spec:
            raise ValueError("%s has no argument %r" % (where, key))
    for key, t in spec.items():
        key, optional = key.rstrip("?"), key.endswith("?")
        if key not in args and not optional:
            raise ValueError("%s %s %r" % (where, lacks, key))
        fault = key in args and _fault(t, args[key], n, args)
        if fault:
            raise ValueError("%s %s" % (field(key), "= %r must be %s" % (
                args[key], fault[1]) if fault[0] else fault[1]))


def _check_factor(doc, where, n):
    """ValueError naming the field unless the factor JSON doc fits
    FACTORS at n."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    own = kind in ("slot", "det")      # their arguments sit at the top
    name = kind if own else doc.get("name") if kind in ("const", "p") \
        else None
    if kind in ("const", "p") and not isinstance(name, str):
        raise ValueError("%s name = %r must be a string" % (where, name))
    args = {k: v for k, v in doc.items() if k != "kind"} if own \
        else doc.get("args") if name else None
    if name is None or name not in FACTORS[kind] or not isinstance(args,
                                                                   dict):
        raise ValueError("%s = %r is no factor: it needs a known \"kind\" "
                         "and \"name\", and \"args\"" % (where, doc))
    spec = FACTORS[kind][name]
    top = {"kind", "name", "args"} | ({"dress"} if kind == "p" else set())
    for key in () if own else [k for k in doc if k not in top]:
        raise ValueError("%s %s factor has no key %r" % (where, name, key))
    if spec and all(key.endswith("?") for key in spec) and len(args) != 1:
        raise ValueError("%s %s factor takes one argument of %s, got %d" % (
            where, name, ", ".join(repr(key[:-1]) for key in spec),
            len(args)))
    _check_args(args, spec, n, "%s %s factor" % (where, name),
                "lacks argument", lambda key: " ".join(
                    dict.fromkeys((where, name, key))))
    dress = doc.get("dress", [])
    if not isinstance(dress, list) or not all(
            isinstance(d, list) and list(map(type, d)) == [int, int]
            for d in dress):
        raise ValueError("%s %s dress = %r must be a list of [integer "
                         "space, integer sign] pairs" % (where, name, dress))
    if any(abs(sign) > MAX_WEIGHT for _, sign in dress):
        raise ValueError("%s %s dress = %r: each sign must be %s"
                         % (where, name, dress, _WEIGHTS))
    spaces = [s for s, _ in dress]
    if len(set(spaces)) < len(spaces):
        raise ValueError("%s dressed factor %s repeats a space in %r"
                         % (where, name, spaces))
    kets, bras = _sides(spec, args)
    for s in spaces:
        if (s in kets) != (s in bras):
            raise ValueError("%s dressed factor %s must be diagonal in "
                             "space %r, but has only a %s there" % (
                                 where, name, s, ("bra", "ket")[s in kets]))


def _check_word(word, where, n):
    if not isinstance(word, list):
        raise ValueError("%s must be a list of factors" % where)
    for i, doc in enumerate(word):
        _check_factor(doc, "%s[%d]" % (where, i), n)


def _check_moves(moves, where, n):
    if not isinstance(moves, list):
        raise ValueError("%s must be a list of moves" % where)
    for i, mv in enumerate(moves):
        at = "%s[%d]" % (where, i)
        fault = _fault(tuple(MOVES), mv.get("move") if isinstance(
            mv, dict) else None, n)
        if fault:
            raise ValueError("%s: move %s, in %r" % (at, fault[1], mv))
        spec = MOVES[mv["move"]]
        for key in mv:
            if key != "move" and key not in spec and key + "?" not in spec:
                raise ValueError("%s: %s has no key %r, in %r"
                                 % (at, mv["move"], key, mv))
        needs = set()
        for key, t in spec.items():
            key, optional = key.rstrip("?"), key.endswith("?")
            if optional and key not in mv and key not in needs:
                continue
            if t == "factors":
                _check_word(mv.get(key), "%s.%s" % (at, key), n)
                continue
            fault = t != "args" and _fault(t, mv.get(key), n, mv)
            if fault:
                raise ValueError("%s: %s must be %s, in %r" % (
                    at, key, fault[1], mv) if fault[0] else "%s: %s %s %s"
                    % (at, mv["move"], key, fault[1]))
            if isinstance(t, dict):
                needs.update(t[mv[key]])
        if mv["move"] != "lemma":
            continue
        # its args fit its signature and build a derivation of the schema
        args, lemma = mv.get("args", {}), "%s: lemma %s" % (at, mv["name"])
        if not isinstance(args, dict):
            raise ValueError("%s args must map argument names to values, "
                             "got %r" % (lemma, args))
        for key, v in args.items():
            if not (type(v) is int or isinstance(v, list)
                    and all(type(x) is int for x in v)):
                raise ValueError("%s arg %s = %r must be an integer or a "
                                 "list of integers" % (lemma, key, v))
        _check_args(args, SIGNATURES[mv["name"]], n, lemma,
                    "is missing argument", lambda key: "%s arg %s" % (
                        lemma, key))
        _check_script(CERTIFICATES[mv["name"]](n, args),
                      "%s with args %r:" % (lemma, args), n)


def _check_script(d, where, n):
    """ValueError naming the field unless the derivation d fits FACTORS
    and MOVES at n."""
    if not isinstance(d, dict):
        raise ValueError("a script must be a JSON object, got %r" % (d,))
    for key in d:
        if key not in ("name", "n", "start", "moves", "end", "end_moves"):
            raise ValueError("%s has no key %r" % (where, key))
    if d.get("n", n) != n:
        raise ValueError("%s n = %r differs from the run's n = %d"
                         % (where, d["n"], n))
    if not isinstance(d.get("name", ""), str):
        raise ValueError("%s name = %r must be a string" % (where, d["name"]))
    for key in ("start", "end"):
        _check_word(d.get(key), "%s %s" % (where, key), n)
    for key in ("moves", "end_moves"):
        _check_moves(d.get(key, []), "%s %s" % (where, key), n)


def derivation_from_json(text, n):
    """A derivation script, checked at n against FACTORS, MOVES and
    SIGNATURES (its top-level n and each lemma's derivation too) before
    any replay: a malformed script raises ValueError naming the field."""
    d = json.loads(text)
    _check_script(d, "script", n)
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
    u7, r7, u4, r4 = d6_aux(n)

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
        _mv("swap", at=3), _mv("swap", at=2),
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
        _mv("swap", at=2), _mv("swap", at=1),
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


def oracle_confirm(engine, derivation):
    """Check a derivation's endpoint equality independently: decide the
    equality of its det-free sides (:func:`oracle_sides`) modulo the
    relation span."""
    sides = oracle_sides(engine, derivation)
    if sides is None:
        return "inconclusive"
    return membership_oracle(engine, *sides)


def oracle_sides(engine, derivation):
    """A derivation's start and end words with the det symbols stripped
    (multiplying both sides by det where needed, expanding the rest
    through the definition at fresh windows), normalized mechanically;
    None when the stripping does not end."""
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
                return None
            det_at = next((i for i, f in enumerate(expr.factors)
                           if isinstance(f, FDet)), None)
            if det_at is None:
                break
            if expr.factors[det_at].power < 1:
                return None
            base = 1 + max([engine.n + 1] + [
                s for f in expr.factors for s in _spaces(f)])
            window = list(range(base, base + engine.n))
            expr = engine.apply_move(expr, {"move": "expand_det",
                                            "at": det_at, "window": window})
            expr = engine.apply_move(expr, {"move": "normalize"})
        sides.append(expr)
    return sides
