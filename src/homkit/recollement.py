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

from .algebra import (Algebra, _ideal_span, _triangular, corner, opposite,
                      quotient_by_idempotent_ideal)
from .invariants import TheoremViolation, finite_gldim, gldim, gorenstein
from .modules import (Module, PdResult, bimodule_restrictions, conjoin, dual, hom_dim, pd,
                      tor_dims)


def module_Ae(a: Algebra, S: list[int], cor: Algebra) -> Module:
    """Ae as a right module over the corner eAe."""
    Sset = set(S)
    vmap = {v: i for i, v in enumerate(sorted(Sset))}
    idx = [k for k in range(a.dim) if a.right[k] in Sset]
    pos = {k: s for s, k in enumerate(idx)}
    action = [{s: {pos[z]: c for z, c in row.items()}
               for s, k in enumerate(idx) if (row := a.mult[k].get(ky))}
              for ky in range(a.dim) if a.left[ky] in Sset and a.right[ky] in Sset]
    return Module(cor, len(idx), action, [vmap[a.right[k]] for k in idx])


def module_eA(a: Algebra, S: list[int], cor: Algebra) -> Module:
    """eA as a left module over the corner: a right module over opposite(eAe).

    This is Ae over the opposites, since ``opposite`` keeps the basis and
    swaps the tags.
    """
    return module_Ae(opposite(a), S, opposite(cor))


def aea_dimension(a: Algebra, S: list[int]) -> int:
    """dim of the two-sided ideal AeA, by direct span of basis products."""
    return _ideal_span(a, S).rank


@dataclass
class StratifyingVerdict:
    kind: str                 # "yes" | "no" | "unknown"
    tensor_dim: int
    aea_dim: int
    first_nonzero_tor: int | None = None
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
    # tensor-Hom adjunction: (Ae (x)_{eAe} eA)* = Hom_{eAe}(Ae, D(eA)), and
    # D(eA) is over opposite(opposite(eAe)), which is eAe itself
    t_dim = hom_dim(Ae, dual(eA))
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
        return StratifyingVerdict("yes", t_dim, d_aea, **pds)
    return StratifyingVerdict("unknown", t_dim, d_aea, **pds)


@dataclass
class LadderEstimate:
    down: PdResult   # pd of Ae over eAe (downward extension criterion)
    up: PdResult     # pd of eA over (eAe)^op (upward extension criterion)
    gldim_finite: bool

    @property
    def height(self) -> str:
        return height_label(self.gldim_finite, self.down, self.up)

    def to_json(self) -> dict:
        return {
            "down_extension": self.down.describe(),
            "up_extension": self.up.describe(),
            "height_estimate": self.height,
        }


def ladder_estimate(a: Algebra, S: list[int], cutoff: int) -> LadderEstimate:
    """Ladder-height estimate for the recollement induced by e.

    The downward criterion is finiteness of pd_{eAe}(Ae); the upward one is
    finiteness of pd over the opposite corner of eA.  A finite global
    dimension of A extends the recollement to every height, so that case is
    reported as ">=4" outright; only that bit is needed, so it comes from
    ``finite_gldim``, not a full ``gldim``.  Certified-infinite corner
    modules block the corresponding direction.
    """
    S = sorted(set(S))
    return _ladder(a, S, stratifying_check(a, S, cutoff), cutoff)


def _ladder(a: Algebra, S: list[int], strat: StratifyingVerdict, cutoff: int) -> LadderEstimate:
    """The ladder of a Yes verdict, which holds pd(Ae) and, when that is not
    Finite, pd(eA): only a missing pd(eA) is resolved here."""
    if not strat:
        raise ValueError(f"ladder_estimate needs a stratifying idempotent, got {strat.describe()}")
    down, up = strat.pd_Ae, strat.pd_eA
    if up is None:
        up = pd(module_eA(a, S, strat.corner), cutoff)
    return LadderEstimate(down, up, finite_gldim(a, cutoff) is not None)


_HEIGHTS = {  # (kind of pd(Ae), kind of pd(eA)) -> label
    ("finite", "finite"): ">=3", ("finite", "infinite"): ">=2", ("finite", "unknown"): ">=2",
    ("infinite", "finite"): ">=2 (up)", ("unknown", "finite"): ">=2 (up)",
    ("infinite", "infinite"): "1 (blocked both ways)", ("unknown", "unknown"): ">=1",
    ("infinite", "unknown"): "1 (down-blocked; up undetermined)",
    ("unknown", "infinite"): ">=1 (up-blocked)",
}


def height_label(gldim_finite: bool, down: PdResult, up: PdResult) -> str:
    """Text estimate of the ladder height from the two extension criteria.

    It reads whether gldim A is finite (then ">=4") and otherwise the kinds
    of pd(Ae) over eAe (down) and of pd(eA) over (eAe)^op (up): each finite
    one adds a level, and a certified infinite one blocks its direction.  No
    pd over A/AeA is read, so ">=3" does not certify that A is Gorenstein
    when A/AeA and eAe are: nilcyc-7-16 splits at e = [0] with ">=3" and
    both pieces Gorenstein, but A is not."""
    if gldim_finite:
        return ">=4 (finite global dimension extends the recollement to all heights)"
    return _HEIGHTS[down.kind, up.kind]


@dataclass
class DetSplitReport:
    reason: str  # why the identity is inapplicable; empty when it applies
    det_a: int | None = None  # the three determinants, None when not computed
    det_quotient: int | None = None
    det_corner: int | None = None

    @property
    def applicable(self) -> bool:
        return not self.reason

    @property
    def passed(self) -> bool | None:  # det A = det A/AeA * det eAe
        return None if self.det_a is None else self.det_a == self.det_quotient * self.det_corner

    def describe(self) -> str:
        if not self.applicable:
            return f"inapplicable ({self.reason})"
        return (f"det {self.det_a} = {self.det_quotient} * {self.det_corner}: "
                f"{'pass' if self.passed else 'FAIL'}")


def det_multiplicativity_check(a: Algebra, S: list[int], cutoff: int,
                               diagnostic: bool = False) -> DetSplitReport:
    """Assert det C(A) = det C(A/AeA) * det C(eAe) on an established split.

    Applicable when the stratifying check says Yes and the downward
    extension is certified (two functor layers preserve compactness).  A
    certified failure raises TheoremViolation.  With ``diagnostic`` the
    identity is evaluated and reported even when the preconditions fail.
    """
    S = sorted(set(S))
    strat = stratifying_check(a, S, cutoff)
    ladder = _ladder(a, S, strat, cutoff) if strat else None
    return _det_split(a, S, strat, ladder, quotient_by_idempotent_ideal(a, S), diagnostic)


def _det_split(a: Algebra, S: list[int], strat: StratifyingVerdict,
               ladder: LadderEstimate | None, quot: Algebra,
               diagnostic: bool = False) -> DetSplitReport:
    """The determinant identity on the split at S, given its stratifying
    verdict, its ladder when that is Yes, and A/AeA."""
    if not strat:
        reason = f"not stratifying: {strat.describe()}"
    elif not (ladder.down.is_finite or ladder.gldim_finite):
        reason = f"downward extension not established ({ladder.down.describe()})"
    else:
        reason = ""
    if reason and not diagnostic:
        return DetSplitReport(reason)
    rep = DetSplitReport(reason, a.cartan.det, quot.cartan.det, strat.corner.cartan.det)
    if rep.applicable and not rep.passed:
        raise TheoremViolation(
            f"det multiplicativity failed on {a.name!r} at e={S}: "
            f"{rep.det_a} != {rep.det_quotient} * {rep.det_corner}")
    return rep


# --------------------------------------------------------------------------
# triangular transfer checks
# --------------------------------------------------------------------------


def _compare(lhs: str, rhs: str) -> str:
    """The two sides of a biconditional, as kinds: ``undetermined`` if
    either is unknown, else ``pass`` when they agree and ``fail`` when not."""
    if "unknown" in (lhs, rhs):
        return "undetermined"
    return "pass" if lhs == rhs else "fail"


def _transfer_inputs(b: Algebra, c: Algebra, m: Module | tuple[Module, Module], cutoff: int,
                     verdict):
    """What both transfer checks read on A = [[B,0],[M,C]]: A, the verdicts
    of A, B and C (each resolved only until it is certain), and the pds of
    M over B and over C^op.  A and the two pds read only M's restrictions
    (M_B, _CM): a file reader gives them (``modules.bimodule_from_json``),
    and for an M over T = tensor(op(C), B) they are summed here, once."""
    mb, mc = bimodule_restrictions(b, c, m) if isinstance(m, Module) else m
    A = _triangular(b, c, mb, mc)
    verdicts = [verdict(x, cutoff, verdict_only=True) for x in (A, b, c)]
    return A, verdicts, pd(mb, cutoff), pd(mc, cutoff)


@dataclass
class TransferReport:
    """A transfer check on A = [[B,0],[M,C]]: the reports of A, B and C, the
    pds of M over B and over C^op, and the check's two outcomes keyed by
    their JSON field names.  ``overall`` is read off the outcomes:
    undetermined if either is, else pass if either passes, else vacuous."""

    kind: str  # "gorenstein-transfer" | "smoothness-transfer"
    algebra_name: str
    parts: tuple  # the reports of A, B and C
    pd_mb: PdResult
    pd_mc: PdResult
    outcomes: dict[str, str]

    @property
    def overall(self) -> str:
        outcomes = self.outcomes.values()
        if "undetermined" in outcomes:
            return "undetermined"
        return "pass" if "pass" in outcomes else "vacuous"

    def to_json(self) -> dict:
        a, b, c = (part.verdict for part in self.parts)
        return {
            "format": "homkit-report/1",
            "kind": self.kind,
            "algebra": self.algebra_name,
            "A": a, "B": b, "C": c,
            "pd_M_over_B": self.pd_mb.describe(),
            "pd_M_over_Cop": self.pd_mc.describe(),
            **self.outcomes,
            "overall": self.overall,
        }


def gorenstein_transfer_check(b: Algebra, c: Algebra, m: Module | tuple[Module, Module],
                              cutoff: int) -> TransferReport:
    """Check the two Gorenstein biconditionals on A = [[B,0],[M,C]].

    With B and C Gorenstein: A is Gorenstein iff pd_B(M) and pd over C^op of
    M are both finite.  With both pd conditions certified finite: A is
    Gorenstein iff B and C are.  Unknown sub-verdicts propagate as
    "undetermined"; a certified disagreement raises TheoremViolation.  The
    report prints only the verdicts of A, B and C, so each is resolved
    only until it is certain (``gorenstein(..., verdict_only=True)``).
    """
    A, (g_a, g_b, g_c), pd_mb, pd_mc = _transfer_inputs(b, c, m, cutoff, gorenstein)
    factors, pds = conjoin((g_b.kind, g_c.kind)), conjoin((pd_mb.kind, pd_mc.kind))
    pd_form = {"finite": _compare(g_a.kind, pds), "unknown": "undetermined",
               "infinite": "inapplicable (B or C certified not Gorenstein)"}[factors]
    factors_form = {"finite": _compare(g_a.kind, factors), "unknown": "undetermined",
                    "infinite": "inapplicable (a pd condition is certified infinite)"}[pds]

    for label, outcome in (("pd-form", pd_form), ("factors-form", factors_form)):
        if outcome == "fail":
            raise TheoremViolation(
                f"Gorenstein transfer {label} certified failure on {A.name!r}: "
                f"A={g_a.verdict} B={g_b.verdict} C={g_c.verdict} "
                f"pd_B M={pd_mb.describe()} pd_Cop M={pd_mc.describe()}")
    return TransferReport("gorenstein-transfer", A.name, (g_a, g_b, g_c), pd_mb, pd_mc,
                          {"pd_form": pd_form, "factors_form": factors_form})


def smoothness_transfer_check(b: Algebra, c: Algebra, m: Module | tuple[Module, Module],
                              cutoff: int) -> TransferReport:
    """Check both smoothness-transfer directions on A = [[B,0],[M,C]].

    Downward: if A is smooth then so are B and C.  Upward: if B and C are
    smooth and one of the pd conditions on M holds, then A is smooth.
    Smoothness here is finiteness of gldim (the finite-dimensional case).
    The report prints only the verdicts of A, B and C, so each is resolved
    only until it is certain (``gldim(..., verdict_only=True)``).
    """
    A, (gl_a, gl_b, gl_c), pd_mb, pd_mc = _transfer_inputs(b, c, m, cutoff, gldim)
    a, factors = gl_a.kind, conjoin((gl_b.kind, gl_c.kind))

    if a == "finite" and factors == "infinite":
        raise TheoremViolation(
            f"smoothness transfer (downward) certified failure on {A.name!r}")
    downward = {"finite": _compare(a, factors), "unknown": "undetermined",
                "infinite": "inapplicable (A not smooth)"}[a]

    # the upward premise needs one pd finite, not both
    pds = {pd_mb.kind, pd_mc.kind}
    if factors == "finite" and "finite" in pds:
        if a == "infinite":
            raise TheoremViolation(
                f"smoothness transfer (upward) certified failure on {A.name!r}")
        upward = "pass" if a == "finite" else "undetermined"
    elif factors == "infinite":
        upward = "inapplicable (B or C not smooth)"
    elif pds == {"infinite"}:
        upward = "inapplicable (both pd conditions certified infinite)"
    else:
        upward = "undetermined"

    return TransferReport("smoothness-transfer", A.name, (gl_a, gl_b, gl_c), pd_mb, pd_mc,
                          {"downward": downward, "upward": upward})


# --------------------------------------------------------------------------
# stratification search
# --------------------------------------------------------------------------


@dataclass
class StratNode:
    algebra: Algebra
    split_vertices: list[int] | None = None
    strat: StratifyingVerdict | None = None
    ladder: LadderEstimate | None = None
    det_check: DetSplitReport | None = None
    quotient_child: "StratNode | None" = None
    corner_child: "StratNode | None" = None
    leaf_label: str = ""
    attempted: int = 0

    @property
    def det(self) -> int:
        return self.algebra.cartan.det

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
            "dim": self.algebra.dim,
            "r": self.algebra.r,
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
                f"(dim {self.algebra.dim}, r {self.algebra.r}, det C {self.det})")
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
    On every split the determinant identity is checked when the downward
    extension is established.  Each algebra computes its Cartan determinant
    once (``Algebra.cartan``), the ladder reuses the pds of the stratifying
    check, and the corner child is the corner that check built.
    """
    node = StratNode(a)
    for tried, S in enumerate(_proper_subsets(a.r), 1):
        strat = stratifying_check(a, S, cutoff)
        if strat.kind != "yes":
            continue
        quot = quotient_by_idempotent_ideal(a, S)
        node.split_vertices = S
        node.strat = strat
        node.ladder = _ladder(a, S, strat, cutoff)
        node.quotient_child = stratify_search(quot, cutoff)
        node.corner_child = stratify_search(strat.corner, cutoff)
        node.det_check = _det_split(a, S, strat, node.ladder, quot)
        node.attempted = tried
        return node
    node.leaf_label = "derived-simple candidate (idempotent search only)"
    node.attempted = 2 ** a.r - 2  # every proper nonempty subset
    return node
