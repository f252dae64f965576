"""Exact-arithmetic toolkit for SL(n)-type dynamical braid matrices,
their Hecke representations, quantum Levi-Civita tensors, and the
quantum matrix algebra built on them."""

from .scalars import (
    DEFAULT_PRIME, DegenerateParameterError, PoleError, PrimeField,
    QContext, RATIONAL, f_poly, qfact, qfact_base, qnum, qnum_base,
)
from .weights import (
    BETA_INFINITY, CONSTANT_MULTIPARAM, GENERIC, INTERMEDIATE, PairFamily,
    SLnParams, WeightPoint, constant_multiparam, sample_params,
    sample_point, sample_twist,
)
from .tensor import TensorOp
from .rmatrix import (
    DynRMatrix, ShiftedEvaluation, beta_removal_offsets, build_dj,
    build_dyn, diag_inversion, invert_dyn, twist_checks, verify_qdybe,
)
from .hecke import (
    HeckeRep, HeckeWord, antisym, antisym_tower, height,
    top_vanish_equivalents,
)
from .levicivita import (
    CO, CONTRA, build_eps_const, build_eps_dyn, build_nk, eigencheck,
    eps_dump, projector_from_eps,
)
from .qmatrix import (
    ReplayEngine, SlotExpr, builtin_derivations, membership_oracle,
    oracle_confirm,
)
from .wznw import WeightVector, casimir, det_normalization_check, dvec

AlphaSpec = PairFamily
TwistSpec = PairFamily
