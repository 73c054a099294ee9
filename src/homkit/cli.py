"""The homkit command line.

    homkit <command> [args] [--cutoff N] [--json] [--seed S] [--field Q|Fp] [--jobs N]

Commands: basis, cartan, gldim, gorenstein, smooth, stratify,
check {theorem1, two-point, eilenberg, gorenstein-transfer,
smoothness-transfer}, corpus, dump.

File arguments take ``.qa`` presentations, ``homkit-algebra/1`` JSON dumps,
or built-in fixture names (FIX-A2, FIX-TP1(n), FIX-TP2, FIX-LOC, FIX-TRI0).
Exit codes: 0 = computed (even when a verdict is Unknown), 1 = input error,
2 = internal invariant violation, 3 = certified violation of an exact
identity (the tripwire; never expected to fire).  A standard output closed
by its reader (``homkit ... | head -1``) is a normal end, with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import corpus as corpus_mod
from .algebra import (Algebra, algebra_from_json, algebra_to_json, from_quiver,
                      opposite, tensor)
from .invariants import (TheoremViolation, cartan_matrix, eilenberg_check,
                         gldim, gorenstein, k0_rank, smooth, two_point_criterion)
from .linalg import FieldError
from .modules import module_from_json, module_to_json
from .presentation import SpecError, parse_spec, spec_of_fixture
from .recollement import (det_multiplicativity_check, gorenstein_transfer_check,
                          smoothness_transfer_check, stratify_search)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_TRIPWIRE = 3


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1 like any other, not argparse's 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _bounded_int(low: int, high: int | None = None):
    """An argparse type: an integer in low..high (no upper end if None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value
    return parse


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def load_algebra(path: str) -> Algebra:
    """Resolve a CLI algebra argument: .qa file, algebra JSON, or fixture name."""
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            if path.endswith(".json"):
                return algebra_from_json(json.loads(text))
            spec = parse_spec(text, name=os.path.basename(path))
            return from_quiver(spec)
        except (SpecError, FieldError, ValueError, json.JSONDecodeError) as e:
            raise InputError(f"{path}: {e}") from None
    base = os.path.basename(path)
    if base.upper().startswith("FIX-"):
        try:
            return from_quiver(spec_of_fixture(base))
        except SpecError as e:
            raise InputError(str(e)) from None
    raise InputError(f"no such file or fixture: {path}")


def _resolve_e(a: Algebra, text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part in a.vertex_labels:
            out.append(a.vertex_labels.index(part))
        elif part.isdigit() and 0 <= int(part) - 1 < a.r and part not in a.vertex_labels:
            out.append(int(part) - 1)
        else:
            raise InputError(f"unknown vertex {part!r} (labels: {', '.join(a.vertex_labels)})")
    return sorted(set(out))


def _print(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_basis(args) -> int:
    a = load_algebra(args.file)
    if args.json:
        doc = {
            "format": "homkit-report/1",
            "kind": "basis",
            "algebra": a.name,
            "field": a.field.name(),
            "dim": a.dim,
            "r": a.r,
            "basis": [{"label": a.labels[k], "left": a.vertex_labels[a.left[k]],
                       "right": a.vertex_labels[a.right[k]]} for k in range(a.dim)],
        }
        _print(canonical_json(doc))
        return EXIT_OK
    _print(f"{a.name}: dim {a.dim}, {a.r} simples over {a.field.name()}")
    for k in range(a.dim):
        kind = "idempotent" if k < a.r else "radical"
        _print(f"  {a.labels[k]:<20} ({a.vertex_labels[a.left[k]]} -> "
                     f"{a.vertex_labels[a.right[k]]})  [{kind}]")
    return EXIT_OK


def cmd_cartan(args) -> int:
    a = load_algebra(args.file)
    rep = cartan_matrix(a)
    if args.json:
        _print(canonical_json(rep.to_json()))
        return EXIT_OK
    _print(f"Cartan matrix of {a.name} ({rep.convention}):")
    for row in rep.matrix.data:
        _print("  [" + ", ".join(str(x) for x in row) + "]")
    _print(f"det = {rep.det}")
    return EXIT_OK


def cmd_gldim(args) -> int:
    a = load_algebra(args.file)
    rep = gldim(a, args.cutoff)
    if args.json:
        _print(canonical_json(rep.to_json()))
    else:
        _print(f"gldim({a.name}) = {rep.describe()}")
        for i, p in enumerate(rep.per_simple):
            _print(f"  pd(S_{a.vertex_labels[i]}) = {p.describe()}")
    return EXIT_OK


def cmd_gorenstein(args) -> int:
    a = load_algebra(args.file)
    rep = gorenstein(a, args.cutoff)
    if args.json:
        _print(canonical_json(rep.to_json()))
    else:
        _print(f"{a.name}: {rep.describe()}")
        _print(f"  right self-injective dimension: {rep.right_id.describe()}")
        _print(f"  left self-injective dimension:  {rep.left_id.describe()}")
    return EXIT_OK


def cmd_smooth(args) -> int:
    a = load_algebra(args.file)
    rep = smooth(a, args.cutoff, cross_check=args.cross_check)
    if args.json:
        _print(canonical_json(rep.to_json()))
    else:
        _print(f"{a.name}: {rep.verdict} (gldim {rep.gldim_report.describe()})")
        if rep.bimodule_pd is not None:
            _print(f"  enveloping-algebra cross-check: pd = {rep.bimodule_pd.describe()}")
    return EXIT_OK


def cmd_stratify(args) -> int:
    a = load_algebra(args.file)
    tree = stratify_search(a, args.cutoff)
    if args.json:
        doc = {"format": "homkit-report/1", "kind": "stratify", "tree": tree.to_json()}
        _print(canonical_json(doc))
    else:
        _print(tree.render())
        leaves = tree.leaves()
        _print(f"{len(leaves)} leaves; leaf det product = "
                     f"{_prod(n.det for n in leaves)}; root det = {tree.det}")
    return EXIT_OK


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def _load_bimodule(args, b: Algebra, c: Algebra):
    T = tensor(opposite(c), b)
    try:
        with open(args.module, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"{args.module}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{args.module}: not valid JSON ({e})") from None
    try:
        if isinstance(doc, dict) and isinstance(doc.get("algebra"), dict):
            inline = algebra_from_json(doc["algebra"])
            if inline != T:
                raise InputError(
                    f"{args.module}: inline algebra does not match tensor(op(C), B)")
        return module_from_json(doc, algebra=T)
    except (ValueError, KeyError) as e:
        raise InputError(f"{args.module}: {e}") from None


def cmd_check(args) -> int:
    kind = args.kind
    if kind == "theorem1":
        a = load_algebra(args.file)
        if not args.e:
            raise InputError("check theorem1 needs --e VERTICES")
        S = _resolve_e(a, args.e)
        if len(S) == a.r:
            raise InputError("--e must leave at least one vertex out")
        rep = det_multiplicativity_check(a, S, args.cutoff, diagnostic=args.diagnostic)
        if args.json:
            doc = {"format": "homkit-report/1", "kind": "theorem1",
                   "algebra": a.name, "e": S, "result": rep.describe(),
                   "applicable": rep.applicable, "passed": rep.passed}
            _print(canonical_json(doc))
        else:
            _print(f"{a.name}, e = {[a.vertex_labels[i] for i in S]}: {rep.describe()}")
        return EXIT_OK
    if kind == "two-point":
        a = load_algebra(args.file)
        rep = two_point_criterion(a)
        _print(canonical_json(rep.to_json()) if args.json
               else f"{a.name}: {rep.describe()}")
        return EXIT_OK
    if kind == "eilenberg":
        a = load_algebra(args.file)
        rep = eilenberg_check(a, args.cutoff)
        _print(canonical_json(rep.to_json()) if args.json
               else f"{a.name}: {rep.describe()}")
        return EXIT_OK
    if kind in ("gorenstein-transfer", "smoothness-transfer"):
        if not args.cfile or not args.module:
            raise InputError(f"check {kind} needs B.qa C.qa M.mod")
        b = load_algebra(args.file)
        c = load_algebra(args.cfile)
        m = _load_bimodule(args, b, c)
        if kind == "gorenstein-transfer":
            rep = gorenstein_transfer_check(b, c, m, args.cutoff)
            if args.json:
                _print(canonical_json(rep.to_json()))
            else:
                _print(f"A = triangular({b.name}, {c.name}, M):")
                _print(f"  A {rep.g_a.verdict}; B {rep.g_b.verdict}; C {rep.g_c.verdict}")
                _print(f"  pd_B M = {rep.pd_mb.describe()}; "
                             f"pd_Cop M = {rep.pd_mc.describe()}")
                _print(f"  pd-form biconditional: {rep.biconditional_pd_form}")
                _print(f"  factors-form biconditional: {rep.biconditional_factors_form}")
                _print(f"  overall: {rep.overall}")
        else:
            rep = smoothness_transfer_check(b, c, m, args.cutoff)
            if args.json:
                _print(canonical_json(rep.to_json()))
            else:
                _print(f"A = triangular({b.name}, {c.name}, M):")
                _print(f"  gldim A {rep.gl_a.describe()}; B {rep.gl_b.describe()}; "
                             f"C {rep.gl_c.describe()}")
                _print(f"  downward: {rep.downward}; upward: {rep.upward}; "
                             f"overall: {rep.overall}")
        return EXIT_OK
    raise InputError(f"unknown check kind {kind!r}")


def cmd_dump(args) -> int:
    if args.dump_module:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as e:
            raise InputError(f"{args.file}: {e}") from None
        algebra = None
        ref = doc.get("algebra") if isinstance(doc, dict) else None
        if isinstance(ref, str):
            # file-path reference, resolved relative to the module file
            cand = ref if os.path.isabs(ref) else \
                os.path.join(os.path.dirname(os.path.abspath(args.file)), ref)
            if os.path.exists(cand):
                algebra = load_algebra(cand)
            elif os.path.basename(ref).upper().startswith("FIX-"):
                algebra = load_algebra(ref)
            else:
                raise InputError(
                    f"{args.file}: algebra reference {ref!r} is not a resolvable "
                    "file, so the module cannot be validated standalone")
        try:
            m = module_from_json(doc, algebra=algebra)
        except (ValueError, KeyError) as e:
            raise InputError(f"{args.file}: {e}") from None
        _print(canonical_json(module_to_json(
            m, algebra_ref=ref if isinstance(ref, str) else None)))
        return EXIT_OK
    a = load_algebra(args.file)
    _print(canonical_json(algebra_to_json(a)))
    return EXIT_OK


# --------------------------------------------------------------------------
# corpus runner
# --------------------------------------------------------------------------


def _eval_corpus_instance(payload) -> dict:
    spec_kw, index, cutoff, suite = payload
    spec = corpus_mod.CorpusSpec(**spec_kw)
    out: dict = {"index": index}
    if spec.shape == "AcyclicQuiver":
        a = corpus_mod.generate(spec, index)
        rep = cartan_matrix(a)
        out["dim"] = a.dim
        out["r"] = a.r
        out["det"] = str(rep.det)
        e = eilenberg_check(a, cutoff)  # |det| != 1 raises inside the check
        if not e.applicable:
            out["verdict"] = "undetermined"
        else:
            if e.det == -1:
                # acyclic instances are positively graded, so the stronger
                # +1 statement is a theorem for them, not just a conjecture
                raise TheoremViolation(
                    f"acyclic instance {index} has det C = -1")
            out["verdict"] = "pass"
            out["conjecture_plus_one"] = bool(e.conjecture_holds)
        _structural_checks(a, out)
    elif spec.shape == "NilpotentCyclic":
        a = corpus_mod.generate(spec, index)
        out["dim"] = a.dim
        out["r"] = a.r
        tree = stratify_search(a, cutoff)
        leaves = tree.leaves()
        splits = tree.splits()
        out["leaves"] = len(leaves)
        out["splits"] = len(splits)
        out["split_dets"] = [s.det_check.describe() for s in splits]
        down_ok = all(s.det_check.applicable for s in splits)
        if splits and down_ok:
            prod = _prod(n.det for n in leaves)
            out["leaf_det_product_matches"] = (prod == tree.det)
        out["verdict"] = "pass"
        _structural_checks(a, out)
    else:
        inst = corpus_mod.generate(spec, index)
        ca = cartan_matrix(inst.a)
        cb = cartan_matrix(inst.b)
        cc = cartan_matrix(inst.c)
        out["dim"] = inst.a.dim
        out["r"] = inst.a.r
        out["det_a"], out["det_b"], out["det_c"] = (str(ca.det), str(cb.det), str(cc.det))
        if ca.det != cb.det * cc.det:
            raise TheoremViolation(
                f"det multiplicativity failed on instance {index}: "
                f"{ca.det} != {cb.det} * {cc.det}")
        if k0_rank(inst.a) != k0_rank(inst.b) + k0_rank(inst.c):
            raise TheoremViolation(f"K0 additivity failed on instance {index}")
        out["verdict"] = "pass"
        if suite == "gorenstein-transfer":
            rep = gorenstein_transfer_check(inst.b, inst.c, inst.m, cutoff)
            out["transfer"] = rep.overall
            out["verdict"] = "pass" if rep.overall != "undetermined" else "undetermined"
        elif suite == "smoothness-transfer":
            rep = smoothness_transfer_check(inst.b, inst.c, inst.m, cutoff)
            out["transfer"] = rep.overall
            out["verdict"] = "pass" if rep.overall != "undetermined" else "undetermined"
        _structural_checks(inst.a, out)
    return out


def _structural_checks(a: Algebra, out: dict):
    rep = cartan_matrix(a)
    total = sum(x for row in rep.matrix.data for x in row)
    if total != a.dim:
        raise TheoremViolation(f"sum of Cartan entries {total} != dim {a.dim}")
    cop = cartan_matrix(opposite(a))
    if cop.matrix != rep.matrix.transpose():
        raise TheoremViolation("C(A^op) != C(A)^T")


def run_corpus(spec: corpus_mod.CorpusSpec, cutoff: int, suite: str = "default",
               jobs: int = 1) -> dict:
    """Evaluate a corpus and assemble the run report (deterministic order)."""
    payloads = [({"seed": spec.seed, "count": spec.count, "shape": spec.shape,
                  "field_name": spec.field_name, "max_vertices": spec.max_vertices,
                  "max_arrows": spec.max_arrows, "max_relations": spec.max_relations,
                  "dim_bound": spec.dim_bound}, i, cutoff, suite)
                for i in range(spec.count)]
    if jobs > 1 and spec.count > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_eval_corpus_instance, payloads))
    else:
        results = [_eval_corpus_instance(p) for p in payloads]
    results.sort(key=lambda d: d["index"])
    counts = {"pass": 0, "fail": 0, "undetermined": 0}
    for rres in results:
        counts[rres.get("verdict", "undetermined")] += 1
    report = {
        "format": "homkit-report/1",
        "kind": "corpus",
        "shape": spec.shape,
        "seed": spec.seed,
        "count": spec.count,
        "field": spec.field_name,
        "cutoff": cutoff,
        "suite": suite,
        "instances": results,
        "aggregate": counts,
    }
    if spec.shape == "AcyclicQuiver":
        report["plus_one_tally"] = sum(
            1 for rres in results if rres.get("conjecture_plus_one"))
    return report


def cmd_corpus(args) -> int:
    shape = args.shape
    try:
        spec = corpus_mod.CorpusSpec(seed=args.seed, count=args.count, shape=shape,
                                     field_name=args.field,
                                     dim_bound=args.dim_bound)
    except ValueError as e:
        # the parser has bounded every other field; only the per-shape
        # minimum of the dimension bound is left to fail here
        raise InputError(f"argument --dim-bound: {e}") from None
    jobs = args.jobs
    env_jobs = os.environ.get("HOMKIT_JOBS")
    if env_jobs is not None:
        try:
            jobs = int(env_jobs)
        except ValueError:
            raise InputError(f"HOMKIT_JOBS must be an integer, got {env_jobs!r}") from None
    t0 = time.monotonic()
    report = run_corpus(spec, args.cutoff, suite=args.suite, jobs=jobs)
    elapsed = time.monotonic() - t0
    if args.with_timing:
        report["timing_seconds"] = round(elapsed, 3)
    text = canonical_json(report)
    summary = f"{shape} x {spec.count} (seed {spec.seed}): {report['aggregate']}"
    if args.with_timing:
        summary += f" in {elapsed:.1f}s"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not args.json:
            _print(f"{summary} -> {args.out}")
    else:
        if args.json:
            _print(text)
        else:
            _print(summary)
            if "plus_one_tally" in report:
                _print(f"det = +1 on {report['plus_one_tally']}/{spec.count}")
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and then kept for the process.

    Each subcommand runs the ``cmd_<command>`` function that ``main`` looks
    up by name at call time, so a later patched or wrapped ``cmd_*`` is the
    one that runs.
    """
    p = _Parser(prog="homkit",
                description="Exact invariants of quiver algebras "
                            "and recollement reduction checks.")
    from . import __version__
    p.add_argument("--version", action="version", version=f"homkit {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cutoff=True):
        sp.add_argument("--json", action="store_true", help="emit the JSON report")
        if cutoff:
            sp.add_argument("--cutoff", type=_bounded_int(1), default=12,
                            help="resolution cutoff (default 12)")

    sp = sub.add_parser("basis", help="print the basis with vertex tags")
    sp.add_argument("file")
    common(sp, cutoff=False)

    sp = sub.add_parser("cartan", help="Cartan matrix and determinant")
    sp.add_argument("file")
    common(sp, cutoff=False)

    sp = sub.add_parser("gldim", help="global dimension with certificates")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("gorenstein", help="self-injective dimensions, both sides")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("smooth", help="smoothness (finite global dimension)")
    sp.add_argument("file")
    sp.add_argument("--cross-check", action="store_true",
                    help="also resolve A over its enveloping algebra (dim <= 8)")
    common(sp)

    sp = sub.add_parser("stratify", help="stratification search along idempotents")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("check", help="run one named identity check")
    sp.add_argument("kind", choices=["theorem1", "two-point", "eilenberg",
                                     "gorenstein-transfer", "smoothness-transfer"])
    sp.add_argument("file", help="algebra file (B.qa for transfer checks)")
    sp.add_argument("cfile", nargs="?", help="C.qa (transfer checks)")
    sp.add_argument("module", nargs="?", help="M.mod (transfer checks)")
    sp.add_argument("--e", help="comma-separated vertex labels for theorem1")
    sp.add_argument("--diagnostic", action="store_true",
                    help="evaluate theorem1 even when preconditions fail")
    common(sp)

    sp = sub.add_parser("corpus", help="run a seeded random corpus suite")
    sp.add_argument("--shape", required=True, choices=list(corpus_mod.SHAPES))
    sp.add_argument("--count", type=_bounded_int(0), default=50)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--field", default="F101", help="Q or Fp (default F101)")
    sp.add_argument("--suite", default="default",
                    choices=["default", "gorenstein-transfer", "smoothness-transfer"])
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="worker processes (HOMKIT_JOBS overrides)")
    sp.add_argument("--dim-bound", type=_bounded_int(1, corpus_mod.DIM_BOUND),
                    default=corpus_mod.DIM_BOUND)
    sp.add_argument("--out", help="write the JSON report to a file")
    sp.add_argument("--with-timing", action="store_true",
                    help="include wall-clock timing in the report "
                         "(off by default to keep reports byte-deterministic)")
    common(sp)

    sp = sub.add_parser("dump", help="emit versioned JSON for an algebra or module")
    sp.add_argument("file")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--dump-algebra", action="store_true", default=False)
    g.add_argument("--dump-module", action="store_true", default=False)
    common(sp, cutoff=False)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away, as after ``| head -1``; point stdout
        # at the null device so that the flush at interpreter exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (SpecError, FieldError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except TheoremViolation as e:
        print(f"THEOREM VIOLATION (tripwire): {e}", file=sys.stderr)
        return EXIT_TRIPWIRE
    except AssertionError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps everything
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
