"""Idempotent-induced recollements of derived module categories.

For a vertex-subset idempotent e of A the triple (A/AeA, A, eAe) carries a
recollement exactly when AeA is a stratifying ideal, which is checked
operationally: the multiplication map from the tensor product Ae (x)_{eAe}
eA must hit AeA in the right dimension and the higher Tor groups must
vanish with a terminating resolution (so the vanishing is certified rather
than cutoff-limited).  Ladder extensions are estimated from the projective
dimensions of the corner modules Ae and eA; the determinant identity
det C(A) = det C(A/AeA) * det C(eAe) is asserted on every split with an
established downward extension.  Certified failures of any of the exact
identities raise TheoremViolation (the CLI's exit-3 tripwire).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .algebra import Algebra, corner, opposite, quotient_by_idempotent_ideal, triangular
from .invariants import (GldimReport, GorensteinReport, TheoremViolation,
                         cartan_matrix, gldim, gldim_is_finite, gorenstein, k0_rank)
from .linalg import RowSpace
from .modules import (Module, PdResult, bimodule_restrictions, pd, tensor_over,
                      tor_dims)


def _corner_indices(a: Algebra, S: list[int]) -> list[int]:
    Sset = set(S)
    return [k for k in range(a.dim) if a.left[k] in Sset and a.right[k] in Sset]


def module_Ae(a: Algebra, S: list[int], cor: Algebra) -> Module:
    """Ae as a right module over the corner eAe."""
    Sset = set(S)
    vmap = {v: i for i, v in enumerate(sorted(Sset))}
    idx = [k for k in range(a.dim) if a.right[k] in Sset]
    pos = {k: s for s, k in enumerate(idx)}
    action = [[{pos[z]: c for z, c in a.mult[k][ky].items()} for k in idx]
              for ky in _corner_indices(a, S)]
    return Module(cor, len(idx), action, [vmap[a.right[k]] for k in idx])


def module_eA(a: Algebra, S: list[int], cor: Algebra) -> Module:
    """eA as a left module over the corner: a right module over opposite(eAe)."""
    Sset = set(S)
    vmap = {v: i for i, v in enumerate(sorted(Sset))}
    idx = [k for k in range(a.dim) if a.left[k] in Sset]
    pos = {k: s for s, k in enumerate(idx)}
    action = [[{pos[z]: c for z, c in a.mult[ky][k].items()} for k in idx]
              for ky in _corner_indices(a, S)]
    return Module(opposite(cor), len(idx), action, [vmap[a.left[k]] for k in idx])


def aea_dimension(a: Algebra, S: list[int]) -> int:
    """dim of the two-sided ideal AeA, by direct span of basis products."""
    Sset = set(S)
    space = RowSpace(a.field)
    for u in range(a.dim):
        if a.right[u] not in Sset:
            continue
        mu = a.mult[u]
        for v in range(a.dim):
            if a.left[v] == a.right[u]:
                row = mu[v]
                if row:
                    space.add(dict(row))
    return space.rank


@dataclass
class StratifyingVerdict:
    kind: str                 # "yes" | "no" | "unknown"
    tensor_dim: int
    aea_dim: int
    first_nonzero_tor: int | None = None
    resolution_terminated: bool = False
    cutoff: int = 0
    # pd of Ae and of eA at ``cutoff``, where the check computed them, and
    # the corner eAe it built (ladder_estimate and the search reuse them)
    pd_Ae: PdResult | None = field(default=None, compare=False, repr=False)
    pd_eA: PdResult | None = field(default=None, compare=False, repr=False)
    corner: Algebra | None = field(default=None, compare=False, repr=False)

    def __bool__(self):
        return self.kind == "yes"

    def describe(self) -> str:
        if self.kind == "yes":
            return f"Yes (dim {self.tensor_dim} = {self.aea_dim}, Tor certified zero)"
        if self.kind == "no":
            if self.tensor_dim != self.aea_dim:
                return f"No (dim Ae(x)eA = {self.tensor_dim} != dim AeA = {self.aea_dim})"
            return f"No (Tor_{self.first_nonzero_tor} != 0)"
        return f"Unknown (resolution not terminated at cutoff {self.cutoff})"


def stratifying_check(a: Algebra, S: list[int], cutoff: int) -> StratifyingVerdict:
    """Is AeA a stratifying ideal for e = sum of the vertex idempotents S?

    Yes requires the degree-0 dimension match plus certified vanishing of
    the higher Tor of (Ae, eA) over eAe.  Certification needs a terminating
    resolution of one of the two corner modules (Tor is balanced, so either
    side suffices); cutoff-limited vanishing stays Unknown.  No carries the
    witness: dimension mismatch or the first nonzero Tor degree.
    """
    S = sorted(set(S))
    if not S or len(S) >= a.r:
        raise ValueError("stratifying_check needs a proper nonempty vertex subset")
    cor = corner(a, S)
    Ae = module_Ae(a, S, cor)
    eA = module_eA(a, S, cor)
    t_dim = tensor_over(Ae, eA).dim
    d_aea = aea_dimension(a, S)
    if t_dim != d_aea:
        return StratifyingVerdict("no", t_dim, d_aea, cutoff=cutoff, corner=cor)
    pd_Ae = pd(Ae, cutoff)
    pd_eA = None
    if pd_Ae.is_finite:
        tors = tor_dims(Ae, eA, cutoff)
        terminated = True
    else:
        pd_eA = pd(eA, cutoff)
        # balanced Tor: resolve eA over the opposite corner instead; with no
        # terminating resolution only a nonzero Tor (a No) can still be
        # certified, and the list may be guard-truncated
        terminated = pd_eA.is_finite
        tors = tor_dims(eA, Ae, cutoff) if terminated else tor_dims(Ae, eA, cutoff)
    pds = {"cutoff": cutoff, "pd_Ae": pd_Ae, "pd_eA": pd_eA, "corner": cor}
    for l in range(1, len(tors)):
        if tors[l] != 0:
            return StratifyingVerdict("no", t_dim, d_aea, first_nonzero_tor=l, **pds)
    if terminated:
        return StratifyingVerdict("yes", t_dim, d_aea, resolution_terminated=True, **pds)
    return StratifyingVerdict("unknown", t_dim, d_aea, **pds)


@dataclass
class LadderEstimate:
    down: PdResult   # pd of Ae over eAe (downward extension criterion)
    up: PdResult     # pd of eA over (eAe)^op (upward extension criterion)
    height: str
    gldim_finite: bool

    def to_json(self) -> dict:
        return {
            "down_extension": self.down.describe(),
            "up_extension": self.up.describe(),
            "height_estimate": self.height,
        }


def ladder_estimate(a: Algebra, S: list[int], cutoff: int,
                    strat: StratifyingVerdict | None = None,
                    det: int | None = None) -> LadderEstimate:
    """Ladder-height estimate for the recollement induced by e.

    The downward criterion is finiteness of pd_{eAe}(Ae); the upward one is
    finiteness of pd over the opposite corner of eA.  A finite global
    dimension of A extends the recollement to every height, so that case is
    reported as ">=4" outright; only that bit is needed, so it comes from
    ``gldim_is_finite`` (given det C(A) when the caller holds it), not a
    full ``gldim``.  Certified-infinite corner modules block the
    corresponding direction.
    """
    S = sorted(set(S))
    if strat is None:
        strat = stratifying_check(a, S, cutoff)
    if strat.kind != "yes":
        raise ValueError(f"ladder_estimate needs a stratifying idempotent, got {strat.describe()}")
    down, up = (strat.pd_Ae, strat.pd_eA) if strat.cutoff == cutoff else (None, None)
    if down is None or up is None:
        cor = strat.corner
        if down is None:
            down = pd(module_Ae(a, S, cor), cutoff)
        if up is None:
            up = pd(module_eA(a, S, cor), cutoff)
    finite = gldim_is_finite(a, cutoff, det)
    return LadderEstimate(down, up, height_label(finite, down, up), finite)


def height_label(gldim_finite: bool, down: PdResult, up: PdResult) -> str:
    """Text estimate of the ladder height from the two extension criteria."""
    if gldim_finite:
        return ">=4 (finite global dimension extends the recollement to all heights)"
    if down.is_finite and up.is_finite:
        return ">=3"
    if down.is_finite:
        return ">=2"
    if up.is_finite:
        return ">=2 (up)"
    if down.is_infinite and up.is_infinite:
        return "1 (blocked both ways)"
    if down.is_infinite:
        return "1 (down-blocked; up undetermined)"
    if up.is_infinite:
        return ">=1 (up-blocked)"
    return ">=1"


@dataclass
class DetSplitReport:
    applicable: bool
    reason: str = ""
    det_a: int | None = None
    det_quotient: int | None = None
    det_corner: int | None = None
    passed: bool | None = None

    def describe(self) -> str:
        if not self.applicable:
            return f"inapplicable ({self.reason})"
        return (f"det {self.det_a} = {self.det_quotient} * {self.det_corner}: "
                f"{'pass' if self.passed else 'FAIL'}")


def det_multiplicativity_check(a: Algebra, S: list[int], cutoff: int,
                               diagnostic: bool = False,
                               strat: StratifyingVerdict | None = None,
                               ladder: LadderEstimate | None = None,
                               dets: tuple[int, int, int] | None = None) -> DetSplitReport:
    """Assert det C(A) = det C(A/AeA) * det C(eAe) on an established split.

    Applicable when the stratifying check says Yes and the downward
    extension is certified (two functor layers preserve compactness).  A
    certified failure raises TheoremViolation.  With ``diagnostic`` the
    identity is evaluated and reported even when the preconditions fail.
    ``dets`` are the three determinants, when the caller already holds
    them (the stratification search does); otherwise they are computed.
    """
    S = sorted(set(S))
    if strat is None:
        strat = stratifying_check(a, S, cutoff)
    applicable = strat.kind == "yes"
    reason = ""
    if applicable:
        if ladder is None:
            ladder = ladder_estimate(a, S, cutoff, strat=strat)
        if not (ladder.down.is_finite or ladder.gldim_finite):
            applicable = False
            reason = f"downward extension not established ({ladder.down.describe()})"
    else:
        reason = f"not stratifying: {strat.describe()}"
    if not applicable and not diagnostic:
        return DetSplitReport(False, reason)
    if dets is None:
        dets = (cartan_matrix(a).det,
                cartan_matrix(quotient_by_idempotent_ideal(a, S)).det,
                cartan_matrix(strat.corner).det)
    det_a, det_q, det_c = dets
    passed = det_a == det_q * det_c
    if applicable and not passed:
        raise TheoremViolation(
            f"det multiplicativity failed on {a.name!r} at e={S}: "
            f"{det_a} != {det_q} * {det_c}")
    return DetSplitReport(applicable, reason, det_a, det_q, det_c, passed)


# --------------------------------------------------------------------------
# triangular transfer checks
# --------------------------------------------------------------------------


def _tri_state_gorenstein(g: GorensteinReport) -> bool | None:
    if g.verdict == "Gorenstein":
        return True
    if g.verdict == "NotGorensteinCertified":
        return False
    return None


def _tri_state_pd_pair(p1: PdResult, p2: PdResult) -> bool | None:
    if p1.is_finite and p2.is_finite:
        return True
    if p1.is_infinite or p2.is_infinite:
        return False
    return None


def _compare(lhs: bool | None, rhs: bool | None) -> str:
    if lhs is None or rhs is None:
        return "undetermined"
    return "pass" if lhs == rhs else "fail"


@dataclass
class GorensteinTransferReport:
    algebra_name: str
    g_a: GorensteinReport
    g_b: GorensteinReport
    g_c: GorensteinReport
    pd_mb: PdResult
    pd_mc: PdResult
    biconditional_pd_form: str      # A Gorenstein <=> both pd finite (needs B, C Gorenstein)
    biconditional_factors_form: str  # A Gorenstein <=> B and C Gorenstein (needs pd finite)
    overall: str                     # "pass" | "undetermined"

    def to_json(self) -> dict:
        return {
            "format": "homkit-report/1",
            "kind": "gorenstein-transfer",
            "algebra": self.algebra_name,
            "A": self.g_a.verdict, "B": self.g_b.verdict, "C": self.g_c.verdict,
            "pd_M_over_B": self.pd_mb.describe(),
            "pd_M_over_Cop": self.pd_mc.describe(),
            "pd_form": self.biconditional_pd_form,
            "factors_form": self.biconditional_factors_form,
            "overall": self.overall,
        }


def gorenstein_transfer_check(b: Algebra, c: Algebra, m: Module,
                              cutoff: int) -> GorensteinTransferReport:
    """Check the two Gorenstein biconditionals on A = [[B,0],[M,C]].

    With B and C Gorenstein: A is Gorenstein iff pd_B(M) and pd over C^op of
    M are both finite.  With both pd conditions certified finite: A is
    Gorenstein iff B and C are.  Unknown sub-verdicts propagate as
    "undetermined"; a certified disagreement raises TheoremViolation.  The
    report prints only the verdicts of A, B and C, so each is resolved
    only until it is certain (``gorenstein(..., verdict_only=True)``).
    """
    A = triangular(b, c, m)
    g_a = gorenstein(A, cutoff, verdict_only=True)
    g_b = gorenstein(b, cutoff, verdict_only=True)
    g_c = gorenstein(c, cutoff, verdict_only=True)
    mb, mc = bimodule_restrictions(b, c, m)
    pd_mb = pd(mb, cutoff)
    pd_mc = pd(mc, cutoff)

    sa = _tri_state_gorenstein(g_a)
    sb = _tri_state_gorenstein(g_b)
    sc = _tri_state_gorenstein(g_c)
    s_pd = _tri_state_pd_pair(pd_mb, pd_mc)

    if sb is True and sc is True:
        pd_form = _compare(sa, s_pd)
    elif sb is False or sc is False:
        pd_form = "inapplicable (B or C certified not Gorenstein)"
    else:
        pd_form = "undetermined"

    if s_pd is True:
        factors = True if (sb is True and sc is True) else (
            False if (sb is False or sc is False) else None)
        factors_form = _compare(sa, factors)
    elif s_pd is False:
        factors_form = "inapplicable (a pd condition is certified infinite)"
    else:
        factors_form = "undetermined"

    for label, outcome in (("pd-form", pd_form), ("factors-form", factors_form)):
        if outcome == "fail":
            raise TheoremViolation(
                f"Gorenstein transfer {label} certified failure on {A.name!r}: "
                f"A={g_a.verdict} B={g_b.verdict} C={g_c.verdict} "
                f"pd_B M={pd_mb.describe()} pd_Cop M={pd_mc.describe()}")
    outcomes = (pd_form, factors_form)
    if any(o == "undetermined" for o in outcomes):
        overall = "undetermined"
    elif any(o == "pass" for o in outcomes):
        overall = "pass"
    else:
        overall = "vacuous"
    return GorensteinTransferReport(A.name, g_a, g_b, g_c, pd_mb, pd_mc,
                                    pd_form, factors_form, overall)


@dataclass
class SmoothnessTransferReport:
    algebra_name: str
    gl_a: GldimReport
    gl_b: GldimReport
    gl_c: GldimReport
    pd_mb: PdResult
    pd_mc: PdResult
    downward: str   # A smooth => B and C smooth
    upward: str     # B, C smooth + one pd finite => A smooth
    overall: str

    def to_json(self) -> dict:
        return {
            "format": "homkit-report/1",
            "kind": "smoothness-transfer",
            "algebra": self.algebra_name,
            "A": self.gl_a.describe(), "B": self.gl_b.describe(), "C": self.gl_c.describe(),
            "pd_M_over_B": self.pd_mb.describe(),
            "pd_M_over_Cop": self.pd_mc.describe(),
            "downward": self.downward,
            "upward": self.upward,
            "overall": self.overall,
        }


def _tri_state_gldim(g: GldimReport) -> bool | None:
    return {"finite": True, "infinite": False, "unknown": None}[g.kind]


def smoothness_transfer_check(b: Algebra, c: Algebra, m: Module,
                              cutoff: int) -> SmoothnessTransferReport:
    """Check both smoothness-transfer directions on A = [[B,0],[M,C]].

    Downward: if A is smooth then so are B and C.  Upward: if B and C are
    smooth and one of the pd conditions on M holds, then A is smooth.
    Smoothness here is finiteness of gldim (the finite-dimensional case).
    The report prints only the verdicts of A, B and C, so each is resolved
    only until it is certain (``gldim(..., verdict_only=True)``).
    """
    A = triangular(b, c, m)
    gl_a = gldim(A, cutoff, verdict_only=True)
    gl_b = gldim(b, cutoff, verdict_only=True)
    gl_c = gldim(c, cutoff, verdict_only=True)
    mb, mc = bimodule_restrictions(b, c, m)
    pd_mb = pd(mb, cutoff)
    pd_mc = pd(mc, cutoff)
    sa, sb, sc = _tri_state_gldim(gl_a), _tri_state_gldim(gl_b), _tri_state_gldim(gl_c)

    if sa is True:
        if sb is False or sc is False:
            raise TheoremViolation(
                f"smoothness transfer (downward) certified failure on {A.name!r}")
        downward = "pass" if (sb is True and sc is True) else "undetermined"
    elif sa is False:
        downward = "inapplicable (A not smooth)"
    else:
        downward = "undetermined"

    premise = (sb is True and sc is True
               and (pd_mb.is_finite or pd_mc.is_finite))
    if premise:
        if sa is False:
            raise TheoremViolation(
                f"smoothness transfer (upward) certified failure on {A.name!r}")
        upward = "pass" if sa is True else "undetermined"
    else:
        if sb is False or sc is False:
            upward = "inapplicable (B or C not smooth)"
        elif pd_mb.is_infinite and pd_mc.is_infinite:
            upward = "inapplicable (both pd conditions certified infinite)"
        else:
            upward = "undetermined"

    outcomes = (downward, upward)
    if any(o == "undetermined" for o in outcomes):
        overall = "undetermined"
    elif any(o == "pass" for o in outcomes):
        overall = "pass"
    else:
        overall = "vacuous"
    return SmoothnessTransferReport(A.name, gl_a, gl_b, gl_c, pd_mb, pd_mc,
                                    downward, upward, overall)


# --------------------------------------------------------------------------
# stratification search
# --------------------------------------------------------------------------


@dataclass
class StratNode:
    algebra: Algebra
    dim: int
    r: int
    det: int
    split_vertices: list[int] | None = None
    strat: StratifyingVerdict | None = None
    ladder: LadderEstimate | None = None
    det_check: DetSplitReport | None = None
    quotient_child: "StratNode | None" = None
    corner_child: "StratNode | None" = None
    leaf_label: str = ""
    attempted: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.split_vertices is None

    def leaves(self) -> list["StratNode"]:
        if self.is_leaf:
            return [self]
        return self.quotient_child.leaves() + self.corner_child.leaves()

    def splits(self) -> list["StratNode"]:
        if self.is_leaf:
            return []
        return [self] + self.quotient_child.splits() + self.corner_child.splits()

    def to_json(self) -> dict:
        out = {
            "algebra": self.algebra.name,
            "dim": self.dim,
            "r": self.r,
            "det": str(self.det),
        }
        if self.is_leaf:
            out["leaf"] = self.leaf_label
            out["subsets_tried"] = self.attempted
        else:
            out["split_vertices"] = self.split_vertices
            out["stratifying"] = self.strat.describe()
            out["ladder"] = self.ladder.to_json()
            out["det_check"] = self.det_check.describe()
            out["quotient"] = self.quotient_child.to_json()
            out["corner"] = self.corner_child.to_json()
        return out

    def render(self, indent: str = "") -> str:
        head = (f"{indent}{self.algebra.name or 'algebra'} "
                f"(dim {self.dim}, r {self.r}, det C {self.det})")
        if self.is_leaf:
            return head + f"  [{self.leaf_label}]"
        lines = [head + f"  split at e={self.split_vertices}"
                 + f"  ladder {self.ladder.height}  {self.det_check.describe()}"]
        lines.append(self.quotient_child.render(indent + "  "))
        lines.append(self.corner_child.render(indent + "  "))
        return "\n".join(lines)


def _proper_subsets(r: int):
    for size in range(1, r):
        for S in combinations(range(r), size):
            yield list(S)


def stratify_search(a: Algebra, cutoff: int) -> StratNode:
    """Depth-first stratification along stratifying vertex-subset idempotents.

    Proper nonempty subsets are tried by size then lexicographic order; the
    first Yes splits A into A/AeA and eAe and the search recurses.  Leaves
    record that only idempotent-induced recollements were searched; they are
    derived-simple *candidates*, not certified derived-simple algebras.
    On every split, K_0-rank additivity is asserted and the determinant
    identity is checked when the downward extension is established.  Each
    node computes its Cartan determinant once; the ladder estimate and the
    determinant check of a split read it and its children's, and the corner
    child is the corner the stratifying check built.
    """
    node = StratNode(a, a.dim, a.r, cartan_matrix(a).det)
    tried = 0
    for S in _proper_subsets(a.r):
        tried += 1
        strat = stratifying_check(a, S, cutoff)
        if strat.kind != "yes":
            continue
        quot = quotient_by_idempotent_ideal(a, S)
        cor = strat.corner
        if k0_rank(quot) + k0_rank(cor) != k0_rank(a):
            raise TheoremViolation(
                f"K0 additivity failed on {a.name!r} at e={S}: "
                f"{k0_rank(quot)} + {k0_rank(cor)} != {k0_rank(a)}")
        node.split_vertices = S
        node.strat = strat
        node.ladder = ladder_estimate(a, S, cutoff, strat=strat, det=node.det)
        node.quotient_child = stratify_search(quot, cutoff)
        node.corner_child = stratify_search(cor, cutoff)
        node.det_check = det_multiplicativity_check(
            a, S, cutoff, strat=strat, ladder=node.ladder,
            dets=(node.det, node.quotient_child.det, node.corner_child.det))
        node.attempted = tried
        return node
    node.leaf_label = "derived-simple candidate (idempotent search only)"
    node.attempted = tried
    return node
