"""Numerical invariants of a split basic algebra.

Cartan data is computed by corner counting (the entry c_ij is the number of
basis elements b with e_j b e_i = b), with the Hom-space solver available as
an independent cross-check.  Global dimension is the maximum projective
dimension over the simples; Gorensteinness tests the self-injective
dimension on both sides; smoothness (for finite-dimensional algebras) is
finiteness of the global dimension.  The Euler form on simples satisfies
E @ C^T = I whenever the global dimension is finite; the orientation of
that identity is pinned by the two-vertex one-arrow algebra and re-derived
in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import zip_longest

from .algebra import Algebra, _tensor_basis, enveloping, opposite
from .linalg import IntMatrix
from .modules import Module, PdResult, adapt_weights, conjoin, ext_dims, injective, pd, simple

CARTAN_CONVENTION = "c[i][j] = dim e_j A e_i (multiplicity of S_i in P_j)"


class TheoremViolation(RuntimeError):
    """A certified violation of an exact identity the library treats as a
    theorem.  This is a tripwire: it should never fire on valid input, and
    the CLI maps it to exit code 3."""


@dataclass
class CartanReport:
    algebra_name: str
    matrix: IntMatrix
    det: int

    def to_json(self) -> dict:
        return {
            "format": "homkit-report/1",
            "kind": "cartan",
            "algebra": self.algebra_name,
            "r": self.matrix.n,
            "matrix": [[str(x) for x in row] for row in self.matrix.data],
            "det": str(self.det),
            "convention": CARTAN_CONVENTION,
        }


def cartan_matrix(a: Algebra) -> CartanReport:
    """The Cartan matrix and its determinant, as ``Algebra.cartan`` holds
    them (corner counting, Bareiss)."""
    return CartanReport(a.name, *a.cartan)


def _pds(modules, cutoff: int, stop: tuple[str, ...]) -> list[PdResult]:
    """pd of each module in order, ending after the first whose kind is in
    ``stop``; ``modules`` may be a generator, so none is built past it."""
    per = []
    for m in modules:
        per.append(pd(m, cutoff))
        if per[-1].kind in stop:
            break
    return per


@dataclass
class GldimReport:
    """pd of the simples in vertex order, the verdict read off them: ``kind``
    is their ``conjoin``, ``value`` the largest d when that is finite, and
    ``verdict`` the text of ``describe()``, as the JSON report names it."""

    per_simple: list[PdResult]
    cutoff: int

    @property
    def kind(self) -> str:
        return conjoin([p.kind for p in self.per_simple])

    @property
    def value(self) -> int | None:
        return max((p.d for p in self.per_simple), default=0) if self.is_finite else None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def describe(self) -> str:
        if (d := self.value) is not None:
            return f"Finite({d})"
        if any(p.is_infinite for p in self.per_simple):
            bad = next(i for i, p in enumerate(self.per_simple) if p.is_infinite)
            return f"InfiniteCertified(simple {bad}: {self.per_simple[bad].describe()})"
        # Unknown: what stopped the first simple that is not Finite
        return next(p for p in self.per_simple if not p.is_finite).describe()

    verdict = property(describe)

    def to_json(self) -> dict:
        return {
            "format": "homkit-report/1",
            "kind": "gldim",
            "verdict": self.describe(),
            "per_simple": [p.describe() for p in self.per_simple],
            "cutoff": self.cutoff,
        }


def gldim(a: Algebra, cutoff: int, *, verdict_only: bool = False) -> GldimReport:
    """Global dimension as the aggregate of pd(S_i) over all simples.

    With ``verdict_only`` the simples are resolved in vertex order only up
    to the first one certified infinite, and ``per_simple`` ends there.
    The verdict and ``describe()``, which names that first infinite
    simple, are those of the full report.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    simples = (simple(a, i) for i in range(a.r))
    return GldimReport(_pds(simples, cutoff, ("infinite",) if verdict_only else ()), cutoff)


def finite_gldim(a: Algebra, cutoff: int) -> GldimReport | None:
    """The global dimension when it is certified finite, else None, with as
    little resolving as possible.

    A finite global dimension forces det C = +-1 (Eilenberg 1954), so any
    other Cartan determinant answers None before a single syzygy is built;
    this keeps algebras such as FIX-TP2 (det 0), whose simples resolve to
    the cutoff, from being resolved.  Otherwise the simples are resolved in
    vertex order, and the answer is None at the first one whose pd is not
    certified Finite, and the full report when every one is.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if a.cartan.det not in (1, -1):
        return None
    g = GldimReport(_pds((simple(a, i) for i in range(a.r)), cutoff, ("infinite", "unknown")),
                    cutoff)
    return g if g.is_finite else None


_GORENSTEIN_VERDICTS = {"finite": "Gorenstein", "infinite": "NotGorensteinCertified",
                        "unknown": "Unknown"}


@dataclass
class GorensteinReport:
    """The self-injective dimensions of A, the verdict read off them: ``kind``
    is the ``conjoin`` of the ids resolved (not of a ``left_id`` of None),
    and ``verdict`` names it Gorenstein, NotGorensteinCertified or Unknown."""

    right_id: PdResult        # id of A as a right module, via pd over A^op of D(A)
    left_id: PdResult | None  # id of A as a left module; None when not resolved
    cutoff: int
    # the certificate of a verdict read off a finite global dimension; None
    # when the injectives were resolved
    gldim_report: GldimReport | None = field(default=None, compare=False)

    @property
    def kind(self) -> str:
        return conjoin([p.kind for p in (self.right_id, self.left_id) if p is not None])

    @property
    def verdict(self) -> str:
        return _GORENSTEIN_VERDICTS[self.kind]

    def describe(self) -> str:
        if self.verdict == "Gorenstein":
            return f"Gorenstein({self.right_id.d},{self.left_id.d})"
        return self.verdict

    def to_json(self) -> dict:
        out = {
            "format": "homkit-report/1",
            "kind": "gorenstein",
            "verdict": self.verdict,
            "right_id": self.right_id.describe(),
            "cutoff": self.cutoff,
        }
        if self.left_id is not None:
            out["left_id"] = self.left_id.describe()
        return out


def self_injective_dimension(a: Algebra, cutoff: int) -> PdResult:
    """id(A_A), as pd over opposite(a) of D(A_A), one indecomposable
    injective D(e_i A) at a time; D(e_i A) is the injective I_i of
    opposite(a), which ``modules.injective`` builds in one pass off a's
    products.

    The summands are resolved in vertex order, and the first one certified
    infinite answers at once: its result is returned with ``summand`` set
    to ``injective i``, keeping its own witness.  Otherwise the answer is
    Finite(max d) when every summand is Finite, since the minimal
    resolution of a sum is the sum of the minimal resolutions, and Unknown
    when some summand is not, with the reason and step of the first such
    summand.  ``syzygy_dims`` are then summed over the summands, as they
    would be for the sum.  A sum repeats only at the lcm of its summands'
    periods, so this decides sides that resolving D(A) whole leaves Unknown
    within the cutoff.  The left side of a is the right side of
    opposite(a).
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    per = _pds((injective(opposite(a), i) for i in range(a.r)), cutoff, ("infinite",))
    if per and per[-1].is_infinite:
        return replace(per[-1], summand=f"injective {len(per) - 1}")
    dims = [sum(col) for col in zip_longest(*(p.syzygy_dims for p in per), fillvalue=0)]
    stop = next((p for p in per if not p.is_finite), None)
    if stop is None:
        return PdResult("finite", d=max((p.d for p in per), default=0), syzygy_dims=dims)
    return PdResult("unknown", cutoff=cutoff, syzygy_dims=dims, reason=stop.reason,
                    step=stop.step)


def gorenstein(a: Algebra, cutoff: int, *, verdict_only: bool = False) -> GorensteinReport:
    """Self-injective dimension on both sides, with certificates.

    A finite global dimension d answers first: then id(A_A) = id(_AA) = d.
    Every module has injective dimension at most d, and a simple X with
    pd X = d has Ext^d(X, A) != 0, since Ext^d(X, -) is right exact, not
    zero, and every module is a quotient of a free one.  The left and right
    global dimensions agree (Auslander 1955), so the same holds on the left.
    ``finite_gldim`` decides it, behind its det C = +-1 gate.  The report
    then carries the ``GldimReport`` as its certificate in
    ``gldim_report``, and both ids are Finite(d) with no syzygy dims.
    Otherwise the indecomposable injectives are resolved on both sides.

    With ``verdict_only`` the left side is not resolved once the right side
    is certified infinite: the verdict is then NotGorensteinCertified
    whatever the left side is, and ``left_id`` is None.
    """
    if (g := finite_gldim(a, cutoff)) is not None:
        return GorensteinReport(PdResult("finite", d=g.value), PdResult("finite", d=g.value),
                                cutoff, g)
    right_id = self_injective_dimension(a, cutoff)
    left_id = None
    if not (verdict_only and right_id.is_infinite):
        left_id = self_injective_dimension(opposite(a), cutoff)
    return GorensteinReport(right_id, left_id, cutoff)


@dataclass
class SmoothReport:
    """Smoothness read off ``gldim_report.kind``: smooth, not_smooth or
    unknown."""

    gldim_report: GldimReport
    bimodule_pd: PdResult | None = None  # optional cross-check over A^e
    cross_check_skipped: str = ""  # why a requested cross-check did not run

    @property
    def verdict(self) -> str:
        return {"finite": "smooth", "infinite": "not_smooth",
                "unknown": "unknown"}[self.gldim_report.kind]

    def describe(self) -> str:
        return self.verdict

    def to_json(self) -> dict:
        out = {
            "format": "homkit-report/1",
            "kind": "smooth",
            "verdict": self.verdict,
            "gldim": self.gldim_report.describe(),
        }
        if self.bimodule_pd is not None:
            out["bimodule_pd"] = self.bimodule_pd.describe()
        elif self.cross_check_skipped:
            out["bimodule_pd"] = self.cross_check_skipped
        return out


def smooth(a: Algebra, cutoff: int, cross_check: bool = False) -> SmoothReport:
    """Smoothness of a finite-dimensional algebra = finite global dimension.

    With ``cross_check`` also computes pd of A as a module over its
    enveloping algebra and insists the finiteness answers agree; above
    dim 8 the check is skipped, and the report says so.
    """
    g = gldim(a, cutoff)
    if cross_check and a.dim > 8:
        return SmoothReport(g, cross_check_skipped=f"skipped (dim {a.dim} > 8)")
    bimodule_pd = None
    if cross_check:
        bimodule_pd = pd(_regular_bimodule(a), cutoff)
        if bimodule_pd.is_finite and g.kind == "infinite":
            raise TheoremViolation("bimodule pd finite but gldim certified infinite")
        if bimodule_pd.is_infinite and g.kind == "finite":
            raise TheoremViolation("bimodule pd certified infinite but gldim finite")
    return SmoothReport(g, bimodule_pd)


def _regular_bimodule(a: Algebra) -> Module:
    """A as a right module over enveloping(a) = op(a) (x) a."""
    env = enveloping(a)
    F = a.field
    # v * (x^op (x) y) = x v y
    action = [{s: v for s in range(a.dim)
               if (v := a.mul_coords(a.mul_coords({x: F.one}, {s: F.one}), {y: F.one}))}
              for (x, y) in _tensor_basis(opposite(a), a)[0]]
    return adapt_weights(env, a.dim, action)


def euler_matrix(a: Algebra, cutoff: int) -> IntMatrix | None:
    """E[i][j] = alternating sum of dim Ext^l(S_i, S_j); None unless the
    global dimension is certified finite within the cutoff."""
    g = gldim(a, cutoff)
    if not g.is_finite:
        return None
    d = g.value
    r = a.r
    simples = [simple(a, i) for i in range(r)]
    rows = []
    for i in range(r):
        row = []
        for j in range(r):
            dims = ext_dims(simples[i], simples[j], d)
            row.append(sum((-1) ** l * dims[l] for l in range(len(dims))))
        rows.append(row)
    return IntMatrix(rows)


@dataclass
class EilenbergReport:
    gldim_desc: str
    det: int | None = None  # None unless gldim is certified finite

    @property
    def applicable(self) -> bool:
        return self.det is not None

    @property
    def conjecture_holds(self) -> bool | None:  # det == +1
        return None if self.det is None else self.det == 1

    def describe(self) -> str:
        if not self.applicable:
            return f"inapplicable (gldim {self.gldim_desc})"
        sign = "+1" if self.conjecture_holds else str(self.det)
        return f"det {self.det} (gldim {self.gldim_desc}); det = {sign}"

    def to_json(self) -> dict:
        return {
            "format": "homkit-report/1",
            "kind": "eilenberg",
            "applicable": self.applicable,
            "gldim": self.gldim_desc,
            "det": None if self.det is None else str(self.det),
            "conjecture_holds": self.conjecture_holds,
        }


def eilenberg_check(a: Algebra, cutoff: int) -> EilenbergReport:
    """For finite global dimension the Cartan determinant must be +-1 (a
    hard assertion; violation raises TheoremViolation) and the +1 case is
    the determinant-conjecture instance."""
    g = gldim(a, cutoff)
    if not g.is_finite:
        return EilenbergReport(g.describe())
    det = a.cartan.det
    if det not in (1, -1):
        raise TheoremViolation(
            f"algebra {a.name!r} has finite gldim {g.value} but det C = {det}")
    return EilenbergReport(g.describe(), det)


@dataclass
class TwoPointReport:
    det: int | None = None  # None unless A has exactly two simples

    @property
    def applicable(self) -> bool:
        return self.det is not None

    @property
    def flagged(self) -> bool | None:  # det <= 0
        return None if self.det is None else self.det <= 0

    def describe(self) -> str:
        if not self.applicable:
            return "inapplicable (needs exactly 2 simples)"
        tag = "2-derived-simple (two-point determinant criterion)" if self.flagged \
            else "criterion not triggered (det > 0)"
        return f"det {self.det}: {tag}"

    def to_json(self) -> dict:
        return {
            "format": "homkit-report/1",
            "kind": "two-point",
            "applicable": self.applicable,
            "det": None if self.det is None else str(self.det),
            "flagged": self.flagged,
        }


def two_point_criterion(a: Algebra) -> TwoPointReport:
    """Two-vertex algebras with det C <= 0 get the derived-simplicity flag."""
    if a.r != 2:
        return TwoPointReport()
    return TwoPointReport(a.cartan.det)
