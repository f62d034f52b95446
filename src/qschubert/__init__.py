"""Exact Q-function calculus, Lagrangian Schubert calculus, and
verification of built-in singularity class tables.

Everything is computed over the integers with no floating point and no
external dependencies.
"""

from .basisconv import ModuleExpansion, QExpansion, expand_in_qtilde, module_expand
from .exprio import ExprError, TPoly, elaborate, in_qtilde_basis, parse
from .partitions import (
    complement,
    enumerate_partitions,
    format_partition,
    is_strict,
    parse_partition,
    partition,
    weight,
)
from .qtilde import qtilde, qtilde_one, qtilde_pair, schur_q
from .schubert import (
    LGRing,
    SchubertClass,
    betti,
    dual,
    integrate,
    multiply,
    omega,
    pair,
    reduce,
)
from .sympoly import ChernSeries, SymPoly, XPoly, chern_difference, elementary, evaluate, subst
from .thomtables import (
    TExpansion,
    ThomRecord,
    builtin_records,
    positivity_check,
    specialize,
    to_chern,
    verify_record,
)

__version__ = "0.1.0"

__all__ = [
    "ChernSeries",
    "ExprError",
    "LGRing",
    "ModuleExpansion",
    "QExpansion",
    "SchubertClass",
    "SymPoly",
    "TExpansion",
    "ThomRecord",
    "TPoly",
    "XPoly",
    "betti",
    "builtin_records",
    "chern_difference",
    "complement",
    "dual",
    "elaborate",
    "elementary",
    "enumerate_partitions",
    "evaluate",
    "expand_in_qtilde",
    "format_partition",
    "in_qtilde_basis",
    "integrate",
    "is_strict",
    "module_expand",
    "multiply",
    "omega",
    "pair",
    "parse",
    "parse_partition",
    "partition",
    "positivity_check",
    "qtilde",
    "qtilde_one",
    "qtilde_pair",
    "reduce",
    "schur_q",
    "specialize",
    "subst",
    "to_chern",
    "verify_record",
    "weight",
]
