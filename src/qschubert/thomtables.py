"""Built-in singularity class tables and their structural checks.

Each record names a singularity type (A_k, D_k, E_k, P_8), its
codimension, and two expansions of its characteristic class:

  legendre   coefficients of Q[I]*t^j, keyed by (I, j);
  lagrange   the t = 0 part, keyed by I alone.

The two parts are stored as independent constants on purpose: the
consistency check below compares them instead of deriving one from the
other, so a typo in either copy is caught.  Checks never raise; they
produce report entries.
"""

from .basisconv import QExpansion, qmono
from .partitions import is_strict, partition
from .schubert import LGRing, SchubertClass
from .sympoly import Combination, SymPoly


def _torder(key):
    i, j = key
    return (j, -sum(i), i)


def _tmono(key):
    i, j = key
    factors = []
    if j == 1:
        factors.append("t")
    elif j > 1:
        factors.append(f"t^{j}")
    factors.append(qmono(i))
    return "*".join(factors)


class TExpansion(Combination):
    """Integer combination of Q[I]*t^j terms, keyed by (I, j)."""

    __slots__ = ()

    _order = staticmethod(_torder)
    _mono = staticmethod(_tmono)

    @staticmethod
    def _key(key):
        i, j = key
        if not isinstance(j, int) or j < 0:
            raise ValueError(f"t-power must be a nonnegative integer, got {j!r}")
        return partition(i), j

    def t_part(self, j: int) -> QExpansion:
        return QExpansion({i: c for (i, p), c in self.coeffs.items() if p == j})

    def t_powers(self) -> tuple:
        return tuple(sorted({j for (_, j) in self.coeffs}))

    def json_obj(self) -> list:
        return [
            {"partition": list(i), "t_power": j, "coefficient": self.coeffs[(i, j)]}
            for (i, j) in sorted(self.coeffs, key=_torder)
        ]


class _Record:
    """A plain record: equal when of one type with equal fields, shown as
    Type(field=value, ...) in the order of _fields."""

    _fields = ()

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ThomRecord(_Record):
    """One singularity type: name, codimension, and both expansions."""

    _fields = ("name", "codim", "legendre", "lagrange")

    def __init__(self, name: str, codim: int, legendre: TExpansion, lagrange: QExpansion):
        self.name = name
        self.codim = codim
        self.legendre = legendre
        self.lagrange = lagrange

    def json_obj(self) -> dict:
        return {
            "name": self.name,
            "codim": self.codim,
            "legendre": self.legendre.json_obj(),
        }


# (name, codim, legendre terms {(parts, t_power): coeff},
#  lagrange terms {parts: coeff}, the latter re-listed independently)
_TABLE = (
    ("A_2", 1,
     {((1,), 0): 1},
     {(1,): 1}),
    ("A_3", 2,
     {((2,), 0): 3, ((1,), 1): 1},
     {(2,): 3}),
    ("A_4", 3,
     {((2, 1), 0): 3, ((3,), 0): 12, ((2,), 1): 10, ((1,), 2): 2},
     {(2, 1): 3, (3,): 12}),
    ("D_4", 3,
     {((2, 1), 0): 1},
     {(2, 1): 1}),
    ("A_5", 4,
     {((3, 1), 0): 27, ((4,), 0): 60, ((2, 1), 1): 22, ((3,), 1): 86,
      ((2,), 2): 40, ((1,), 3): 6},
     {(3, 1): 27, (4,): 60}),
    ("D_5", 4,
     {((3, 1), 0): 6, ((2, 1), 1): 4},
     {(3, 1): 6}),
    ("A_6", 5,
     {((3, 2), 0): 87, ((4, 1), 0): 228, ((5,), 0): 360,
      ((3, 1), 1): 343, ((4,), 1): 756,
      ((2, 1), 2): 151, ((3,), 2): 584,
      ((2,), 3): 196, ((1,), 4): 24},
     {(3, 2): 87, (4, 1): 228, (5,): 360}),
    ("D_6", 5,
     {((3, 2), 0): 12, ((4, 1), 0): 24, ((3, 1), 1): 32, ((2, 1), 2): 12},
     {(3, 2): 12, (4, 1): 24}),
    ("E_6", 5,
     {((3, 2), 0): 9, ((4, 1), 0): 6, ((3, 1), 1): 9, ((2, 1), 2): 3},
     {(3, 2): 9, (4, 1): 6}),
    ("A_7", 6,
     {((3, 2, 1), 0): 135, ((4, 2), 0): 1275, ((5, 1), 0): 2004, ((6,), 0): 2520,
      ((5,), 1): 7092, ((4, 1), 1): 4439, ((3, 2), 1): 1713,
      ((3, 1), 2): 3545, ((4,), 2): 7868,
      ((2, 1), 3): 1106, ((3,), 3): 4292,
      ((2,), 4): 1148, ((1,), 5): 120},
     {(3, 2, 1): 135, (4, 2): 1275, (5, 1): 2004, (6,): 2520}),
    ("D_7", 6,
     {((3, 2, 1), 0): 24, ((4, 2), 0): 120, ((5, 1), 0): 144,
      ((3, 2), 1): 152, ((4, 1), 1): 288,
      ((3, 1), 2): 208, ((2, 1), 3): 56},
     {(3, 2, 1): 24, (4, 2): 120, (5, 1): 144}),
    ("E_7", 6,
     {((3, 2, 1), 0): 9, ((4, 2), 0): 60, ((5, 1), 0): 24,
      ((4, 1), 1): 56, ((3, 2), 1): 66,
      ((3, 1), 2): 42, ((2, 1), 3): 10},
     {(3, 2, 1): 9, (4, 2): 60, (5, 1): 24}),
    ("P_8", 6,
     {((3, 2, 1), 0): 1},
     {(3, 2, 1): 1}),
)


def builtin_records() -> list:
    """Fresh copies of the built-in records (safe to mutate in tests)."""
    return [
        ThomRecord(name, codim, TExpansion(dict(leg)), QExpansion(dict(lag)))
        for name, codim, leg, lag in _TABLE
    ]


class CheckResult(_Record):
    _fields = ("name", "passed", "violators")

    def __init__(self, name: str, passed: bool, violators=None):
        self.name = name
        self.passed = passed
        self.violators = [] if violators is None else violators

    def json_obj(self) -> dict:
        return {"check": self.name, "passed": self.passed,
                "violators": [repr(v) for v in self.violators]}


class RecordReport(_Record):
    _fields = ("record_name", "codim", "checks")

    def __init__(self, record_name: str, codim: int, checks: list):
        self.record_name = record_name
        self.codim = codim
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def json_obj(self) -> dict:
        return {"name": self.record_name, "codim": self.codim,
                "passed": self.passed,
                "checks": [c.json_obj() for c in self.checks]}

    def lines(self) -> list:
        status = "PASS" if self.passed else "FAIL"
        out = [f"{self.record_name} (codim {self.codim}): {status}"]
        for c in self.checks:
            if not c.passed:
                out.append(f"  {c.name}: FAIL, violators {c.violators}")
        return out


def positivity_check(e):
    """True plus empty list iff all coefficients are nonnegative.

    Accepts a plain QExpansion or a TExpansion; violators keep the key
    shape of the input.
    """
    violators = sorted((k for k, c in e.coeffs.items() if c < 0), key=e._order)
    return not violators, violators


def verify_record(r: ThomRecord) -> RecordReport:
    """Structural checks on one record; failures are reported, not raised."""
    # Lagrange keys as t^0 terms; where both parts have a key, the
    # Legendre value is the one checked
    terms = {(k, 0): c for k, c in r.lagrange.coeffs.items()} | r.legendre.coeffs
    keys = sorted(terms, key=_torder)

    def check(name, bad):
        return CheckResult(name, not bad, bad)

    return RecordReport(r.name, r.codim, [
        check("nonnegative", [k for k in keys if terms[k] < 0]),
        check("homogeneous", [k for k in keys if sum(k[0]) + k[1] != r.codim]),
        check("lagrange_matches",
              [] if r.legendre.t_part(0) == r.lagrange else ["t^0 part differs"]),
        check("strict_keys", [k for k in keys if not is_strict(k[0])]),
    ])


def to_chern(e: QExpansion) -> SymPoly:
    """The expansion as an explicit polynomial in the generators ci."""
    return e.to_sympoly()


def specialize(e: QExpansion, n: int) -> SchubertClass:
    """Restrict to LG(n): keys with a part above n drop out."""
    kept = {k: c for k, c in e.coeffs.items() if not k or k[0] <= n}
    return SchubertClass(LGRing(n), kept)
