"""The homkit command line.

    homkit <command> [args] [--json] [--cutoff N]
    homkit check <kind> FILE [C M] [--e V] [--diagnostic] [--json] [--cutoff N]
    homkit corpus --shape S [--count N] [--seed S] [--field Q|Fp] [--jobs N] [--json]

Commands: basis, cartan, gldim, gorenstein, smooth, stratify, check, corpus,
dump.  Each kind of check is a subcommand of check that declares only what it
reads: the transfer checks take C and M, theorem1 takes --e and --diagnostic,
and two-point takes no --cutoff.  Every command and kind takes ``--json``
after its arguments; all but basis, cartan, dump and check two-point take
``--cutoff``.  All but corpus and dump print through ``_report``, which builds
either the JSON report or the text.

File arguments take ``.qa`` presentations, ``homkit-algebra/1`` JSON dumps,
or built-in fixture names (FIX-A2, FIX-TP1(n), FIX-TP2, FIX-LOC, FIX-TRI0).
Exit codes: 0 = computed (even when a verdict is Unknown), 1 = input error,
2 = internal error, 3 = certified violation of an exact
identity (the tripwire; never expected to fire).  A standard output closed
by its reader (``homkit ... | head -1``) is a normal end, with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import corpus as corpus_mod
from .algebra import Algebra, algebra_from_json, algebra_to_json, from_quiver, opposite, tensor
from .invariants import (CARTAN_CONVENTION, TheoremViolation, cartan_matrix,
                         eilenberg_check, gldim, gorenstein, smooth, two_point_criterion)
from .linalg import FieldError
from .modules import Module, bimodule_from_json, module_from_json, module_to_json
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


def _read_json(path: str):
    """The JSON value in this file; one that cannot be read, is not UTF-8 or
    is not JSON is an input error naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise InputError(f"{path}: {e}") from None


def load_algebra(path: str) -> Algebra:
    """Resolve a CLI algebra argument: .qa file, algebra JSON, or fixture name."""
    if os.path.exists(path):
        try:
            if path.endswith(".json"):
                return algebra_from_json(_read_json(path))
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
            spec = parse_spec(text, name=os.path.basename(path))
            return from_quiver(spec)
        except (OSError, ValueError) as e:
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
        elif part.isascii() and part.isdigit() and 0 <= int(part) - 1 < a.r:
            out.append(int(part) - 1)
        else:
            raise InputError(f"unknown vertex {part!r} (labels: {', '.join(a.vertex_labels)})")
    return sorted(set(out))


def _print(text: str):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report(args, doc, text) -> int:
    """Print a report: the canonical JSON of ``doc()`` under ``--json``, else
    the lines of ``text()``; only the one asked for is built."""
    _print(canonical_json(doc()) if args.json else "\n".join(text()))
    return EXIT_OK


def cmd_basis(args) -> int:
    a = load_algebra(args.file)

    def doc():
        return {
            "format": "homkit-report/1",
            "kind": "basis",
            "algebra": a.name,
            "field": a.field.name(),
            "dim": a.dim,
            "r": a.r,
            "basis": [{"label": a.labels[k], "left": a.vertex_labels[a.left[k]],
                       "right": a.vertex_labels[a.right[k]]} for k in range(a.dim)],
        }

    def text():
        yield f"{a.name}: dim {a.dim}, {a.r} simples over {a.field.name()}"
        for k in range(a.dim):
            kind = "idempotent" if k < a.r else "radical"
            yield (f"  {a.labels[k]:<20} ({a.vertex_labels[a.left[k]]} -> "
                   f"{a.vertex_labels[a.right[k]]})  [{kind}]")
    return _report(args, doc, text)


def cmd_cartan(args) -> int:
    a = load_algebra(args.file)
    rep = cartan_matrix(a)

    def text():
        yield f"Cartan matrix of {a.name} ({CARTAN_CONVENTION}):"
        for row in rep.matrix.data:
            yield "  [" + ", ".join(str(x) for x in row) + "]"
        yield f"det = {rep.det}"
    return _report(args, rep.to_json, text)


def cmd_gldim(args) -> int:
    a = load_algebra(args.file)
    rep = gldim(a, args.cutoff)

    def text():
        yield f"gldim({a.name}) = {rep.describe()}"
        for i, p in enumerate(rep.per_simple):
            yield f"  pd(S_{a.vertex_labels[i]}) = {p.describe()}"
    return _report(args, rep.to_json, text)


def cmd_gorenstein(args) -> int:
    a = load_algebra(args.file)
    rep = gorenstein(a, args.cutoff)

    def text():
        yield f"{a.name}: {rep.describe()}"
        yield f"  right self-injective dimension: {rep.right_id.describe()}"
        yield f"  left self-injective dimension:  {rep.left_id.describe()}"
    return _report(args, rep.to_json, text)


def cmd_smooth(args) -> int:
    a = load_algebra(args.file)
    rep = smooth(a, args.cutoff, cross_check=args.cross_check)

    def text():
        yield f"{a.name}: {rep.verdict} (gldim {rep.gldim_report.describe()})"
        if rep.bimodule_pd is not None:
            yield f"  enveloping-algebra cross-check: pd = {rep.bimodule_pd.describe()}"
        elif rep.cross_check_skipped:
            yield f"  enveloping-algebra cross-check: {rep.cross_check_skipped}"
    return _report(args, rep.to_json, text)


def cmd_stratify(args) -> int:
    a = load_algebra(args.file)
    tree = stratify_search(a, args.cutoff)

    def text():
        yield tree.render()
        leaves = tree.leaves()
        yield (f"{len(leaves)} leaves; leaf det product = "
               f"{math.prod(n.det for n in leaves)}; root det = {tree.det}")
    return _report(args, lambda: {"format": "homkit-report/1", "kind": "stratify",
                                  "tree": tree.to_json()}, text)


def _load_bimodule(args, b: Algebra, c: Algebra) -> tuple[Module, Module]:
    """M's restrictions (M_B, _CM), read off the file without building
    tensor(op(C), B), which is built only to compare an inline algebra with it."""
    doc = _read_json(args.module)
    try:
        if isinstance(doc, dict) and isinstance(doc.get("algebra"), dict):
            inline = algebra_from_json(doc["algebra"])
            if inline != tensor(opposite(c), b):
                raise InputError(
                    f"{args.module}: inline algebra does not match tensor(op(C), B)")
        return bimodule_from_json(doc, b, c)
    except ValueError as e:
        raise InputError(f"{args.module}: {e}") from None


_TRANSFER_CHECKS = {"gorenstein-transfer": gorenstein_transfer_check,
                    "smoothness-transfer": smoothness_transfer_check}


def _transfer_text(b: Algebra, c: Algebra, rep):
    """The lines of a transfer check's text report."""
    va, vb, vc = (p.verdict for p in rep.parts)
    o = rep.outcomes
    yield f"A = triangular({b.name}, {c.name}, M):"
    if rep.kind == "gorenstein-transfer":
        yield f"  A {va}; B {vb}; C {vc}"
        yield f"  pd_B M = {rep.pd_mb.describe()}; pd_Cop M = {rep.pd_mc.describe()}"
        yield f"  pd-form biconditional: {o['pd_form']}"
        yield f"  factors-form biconditional: {o['factors_form']}"
        yield f"  overall: {rep.overall}"
    else:
        yield f"  gldim A {va}; B {vb}; C {vc}"
        yield f"  downward: {o['downward']}; upward: {o['upward']}; overall: {rep.overall}"


def cmd_check(args) -> int:
    kind = args.kind
    if kind in _TRANSFER_CHECKS:
        b = load_algebra(args.file)
        c = load_algebra(args.cfile)
        rep = _TRANSFER_CHECKS[kind](b, c, _load_bimodule(args, b, c), args.cutoff)
        return _report(args, rep.to_json, lambda: _transfer_text(b, c, rep))
    a = load_algebra(args.file)
    if kind == "theorem1":
        S = _resolve_e(a, args.e)
        if len(S) == a.r:
            raise InputError("--e must leave at least one vertex out")
        rep = det_multiplicativity_check(a, S, args.cutoff, diagnostic=args.diagnostic)
        return _report(args, lambda: {"format": "homkit-report/1", "kind": "theorem1",
                                      "algebra": a.name, "e": S, "result": rep.describe(),
                                      "applicable": rep.applicable, "passed": rep.passed},
                       lambda: [f"{a.name}, e = {[a.vertex_labels[i] for i in S]}: "
                                f"{rep.describe()}"])
    rep = two_point_criterion(a) if kind == "two-point" else eilenberg_check(a, args.cutoff)
    return _report(args, rep.to_json, lambda: [f"{a.name}: {rep.describe()}"])


def cmd_dump(args) -> int:
    if args.dump_module:
        doc = _read_json(args.file)
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
        except ValueError as e:
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
    spec, index, cutoff, suite = payload
    out: dict = {"index": index}
    if spec.shape == "AcyclicQuiver":
        a = corpus_mod.generate(spec, index)
        out["dim"] = a.dim
        out["r"] = a.r
        out["det"] = str(a.cartan.det)
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
            prod = math.prod(n.det for n in leaves)
            out["leaf_det_product_matches"] = (prod == tree.det)
        out["verdict"] = "pass"
    else:
        inst = corpus_mod.generate(spec, index)
        out["dim"] = inst.a.dim
        out["r"] = inst.a.r
        out["det_a"], out["det_b"], out["det_c"] = (
            str(x.cartan.det) for x in (inst.a, inst.b, inst.c))
        out["verdict"] = "pass"
        check = _TRANSFER_CHECKS.get(suite)
        if check is not None:
            out["transfer"] = check(inst.b, inst.c, inst.m, cutoff).overall
            out["verdict"] = "pass" if out["transfer"] != "undetermined" else "undetermined"
    return out


def run_corpus(spec: corpus_mod.CorpusSpec, cutoff: int, suite: str = "default",
               jobs: int = 1) -> dict:
    """Evaluate a corpus and assemble the run report (deterministic order)."""
    payloads = [(spec, i, cutoff, suite) for i in range(spec.count)]
    if jobs > 1 and spec.count > 1:
        from concurrent.futures import ProcessPoolExecutor
        # a fork pool starts all its workers at once, so start no more
        # than there are instances
        with ProcessPoolExecutor(max_workers=min(jobs, spec.count)) as pool:
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
    t0 = time.monotonic()
    report = run_corpus(spec, args.cutoff, suite=args.suite, jobs=args.jobs)
    elapsed = time.monotonic() - t0
    if args.with_timing:
        report["timing_seconds"] = round(elapsed, 3)
    text = canonical_json(report)
    summary = f"{shape} x {spec.count} (seed {spec.seed}): {report['aggregate']}"
    if args.with_timing:
        summary += f" in {elapsed:.1f}s"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise InputError(f"{args.out}: {e}") from None
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
    one that runs; ``--json`` is read in one place, ``_report``.  Each check
    kind is a subcommand of ``check`` with only the arguments it reads, so
    argparse rejects any other as unrecognized.
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
    kinds = sp.add_subparsers(dest="kind", required=True)
    for kind in ("theorem1", "two-point", "eilenberg", *_TRANSFER_CHECKS):
        ks = kinds.add_parser(kind)
        ks.add_argument("file", help="algebra file (B for a transfer check)")
        if kind in _TRANSFER_CHECKS:
            ks.add_argument("cfile", help="C's algebra file")
            ks.add_argument("module", help="M's bimodule file")
        if kind == "theorem1":
            ks.add_argument("--e", required=True, help="comma-separated vertex labels")
            ks.add_argument("--diagnostic", action="store_true",
                            help="evaluate even when preconditions fail")
        common(ks, cutoff=kind != "two-point")

    sp = sub.add_parser("corpus", help="run a seeded random corpus suite")
    sp.add_argument("--shape", required=True, choices=list(corpus_mod.SHAPES))
    sp.add_argument("--count", type=_bounded_int(0), default=50)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--field", default="F101", help="Q or Fp (default F101)")
    sp.add_argument("--suite", default="default", choices=["default", *_TRANSFER_CHECKS])
    sp.add_argument("--jobs", type=_bounded_int(1), default=os.cpu_count() or 1,
                    help="worker processes")
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
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps everything
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
