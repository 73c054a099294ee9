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

from dataclasses import dataclass, replace
from itertools import zip_longest

from .algebra import Algebra, opposite
from .linalg import IntMatrix, det_int
from .modules import Module, PdResult, dual, ext_dims, pd, projective, simple

CARTAN_CONVENTION = "c[i][j] = dim e_j A e_i (multiplicity of S_i in P_j)"


class TheoremViolation(RuntimeError):
    """A certified violation of an exact identity the library treats as a
    theorem.  This is a tripwire: it should never fire on valid input, and
    the CLI maps it to exit code 3."""


@dataclass
class CartanReport:
    algebra_name: str
    r: int
    matrix: IntMatrix
    det: int
    convention: str = CARTAN_CONVENTION

    def to_json(self) -> dict:
        return {
            "format": "homkit-report/1",
            "kind": "cartan",
            "algebra": self.algebra_name,
            "r": self.r,
            "matrix": [[str(x) for x in row] for row in self.matrix.data],
            "det": str(self.det),
            "convention": self.convention,
        }


def cartan_matrix(a: Algebra) -> CartanReport:
    """Cartan matrix by exact corner counting, determinant by Bareiss."""
    r = a.r
    counts = [[0] * r for _ in range(r)]
    for k in range(a.dim):
        # basis element in e_j A e_i contributes to c_ij
        counts[a.right[k]][a.left[k]] += 1
    m = IntMatrix(counts)
    return CartanReport(a.name, r, m, det_int(m))


def k0_rank(a: Algebra) -> int:
    """Rank of K_0: the number of simples (= vertex idempotents)."""
    return a.r


@dataclass
class GldimReport:
    per_simple: list[PdResult]
    kind: str              # "finite" | "infinite" | "unknown"
    value: int | None      # max pd over simples, when finite
    cutoff: int

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def describe(self) -> str:
        if self.kind == "finite":
            return f"Finite({self.value})"
        if self.kind == "infinite":
            bad = next(i for i, p in enumerate(self.per_simple) if p.is_infinite)
            return f"InfiniteCertified(simple {bad}: {self.per_simple[bad].describe()})"
        return f"Unknown(cutoff {self.cutoff})"

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
    per = []
    for i in range(a.r):
        per.append(pd(simple(a, i), cutoff))
        if verdict_only and per[-1].is_infinite:
            break
    if any(p.is_infinite for p in per):
        return GldimReport(per, "infinite", None, cutoff)
    if all(p.is_finite for p in per):
        value = max((p.d for p in per), default=0)
        return GldimReport(per, "finite", value, cutoff)
    return GldimReport(per, "unknown", None, cutoff)


def gldim_is_finite(a: Algebra, cutoff: int, det: int | None = None) -> bool:
    """``gldim(a, cutoff).is_finite``, decided with as little resolving as
    possible.

    A finite global dimension forces det C = +-1 (Eilenberg 1954), so any
    other Cartan determinant answers False before a single syzygy is built.
    Otherwise the simples are resolved in vertex order and the answer is
    False at the first one whose pd is not certified Finite.  A caller that
    already holds det C passes it as ``det``.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if det is None:
        det = cartan_matrix(a).det
    if det not in (1, -1):
        return False
    return all(pd(simple(a, i), cutoff).is_finite for i in range(a.r))


@dataclass
class GorensteinReport:
    right_id: PdResult        # id of A as a right module, via pd over A^op of D(A)
    left_id: PdResult | None  # id of A as a left module; None when not resolved
    verdict: str              # "Gorenstein" | "NotGorensteinCertified" | "Unknown"
    cutoff: int

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
    injective D(e_i A) at a time.

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
    per = []
    for i in range(a.r):
        p = pd(dual(projective(a, i)), cutoff)
        if p.is_infinite:
            return replace(p, summand=f"injective {i}")
        per.append(p)
    dims = [sum(col) for col in zip_longest(*(p.syzygy_dims for p in per), fillvalue=0)]
    stop = next((p for p in per if not p.is_finite), None)
    if stop is None:
        return PdResult("finite", d=max((p.d for p in per), default=0), syzygy_dims=dims)
    return PdResult("unknown", cutoff=cutoff, syzygy_dims=dims, reason=stop.reason,
                    step=stop.step)


def gorenstein(a: Algebra, cutoff: int, *, verdict_only: bool = False) -> GorensteinReport:
    """Self-injective dimension on both sides, with certificates.

    With ``verdict_only`` the left side is not resolved once the right side
    is certified infinite: the verdict is then NotGorensteinCertified
    whatever the left side is, and ``left_id`` is None.
    """
    right_id = self_injective_dimension(a, cutoff)
    left_id = None
    if not (verdict_only and right_id.is_infinite):
        left_id = self_injective_dimension(opposite(a), cutoff)
    if right_id.is_finite and left_id.is_finite:
        verdict = "Gorenstein"
    elif right_id.is_infinite or left_id.is_infinite:
        verdict = "NotGorensteinCertified"
    else:
        verdict = "Unknown"
    return GorensteinReport(right_id, left_id, verdict, cutoff)


@dataclass
class SmoothReport:
    verdict: str  # "smooth" | "not_smooth" | "unknown"
    gldim_report: GldimReport
    bimodule_pd: PdResult | None = None  # optional cross-check over A^e

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
        return out


def smooth(a: Algebra, cutoff: int, cross_check: bool = False) -> SmoothReport:
    """Smoothness of a finite-dimensional algebra = finite global dimension.

    With ``cross_check`` (small algebras, dim <= 8) also computes pd of A as
    a module over its enveloping algebra and insists the finiteness answers
    agree.
    """
    g = gldim(a, cutoff)
    verdict = {"finite": "smooth", "infinite": "not_smooth", "unknown": "unknown"}[g.kind]
    bimodule_pd = None
    if cross_check and a.dim <= 8:
        bimodule_pd = pd(_regular_bimodule(a), cutoff)
        if bimodule_pd.is_finite and g.kind == "infinite":
            raise TheoremViolation("bimodule pd finite but gldim certified infinite")
        if bimodule_pd.is_infinite and g.kind == "finite":
            raise TheoremViolation("bimodule pd certified infinite but gldim finite")
    return SmoothReport(verdict, g, bimodule_pd)


def _regular_bimodule(a: Algebra) -> Module:
    """A as a right module over enveloping(a) = op(a) (x) a."""
    from .algebra import enveloping
    env = enveloping(a)
    F = a.field
    # v * (x^op (x) y) = x v y
    action = [[a.mul_coords(a.mul_coords({x: F.one}, {s: F.one}), {y: F.one})
               for s in range(a.dim)] for (x, y) in env._pair_index]
    from .modules import adapt_weights
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
    applicable: bool
    gldim_desc: str
    det: int | None = None
    conjecture_holds: bool | None = None  # det == +1

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
        return EilenbergReport(False, g.describe())
    det = cartan_matrix(a).det
    if det not in (1, -1):
        raise TheoremViolation(
            f"algebra {a.name!r} has finite gldim {g.value} but det C = {det}")
    return EilenbergReport(True, g.describe(), det, det == 1)


@dataclass
class TwoPointReport:
    applicable: bool
    det: int | None = None
    flagged: bool | None = None

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
        return TwoPointReport(False)
    det = cartan_matrix(a).det
    return TwoPointReport(True, det, det <= 0)
