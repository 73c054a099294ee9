"""The homkit benchmark: per-request CLI latency and throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One request is one in-process ``homkit.cli.main([...])`` call on one
generated input.  A single client sends requests in a closed loop, each
after the previous one returned, from one thread at ``--cutoff 12``.  The
loop runs whole passes over the workload's request pool, each pass in an
order drawn from ``--seed`` (the first pass in file order), while the next
pass is expected to end within ``--seconds`` (at least one pass).

On a shared host, speed drifts by up to 1.5x between regimes lasting
seconds to minutes, and every wall time drifts with it.  So the fixed work
of ``yardstick.py`` is timed between every two requests, and each latency
is scaled to the host's reference speed by the yardstick times around it.
A request's latency is the median of its scaled latencies over the passes.

Set-up (``inputs.py``, run in fresh interpreters before the loop and after
every pass) generates the pool with ``homkit.corpus`` and dumps it as JSON;
``setup_s`` is the median of at least SETUP_REPEATS set-ups, each scaled by
the yardstick timed right after it.  Every answer
is checked: exit code 0, the same bytes on every pass, and no decided
verdict that differs from the reference recorded at the seed commit
(``reference/``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass over the same order and prints the per-layer
metrics of the first traced pass.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import verdicts  # noqa: E402
import yardstick  # noqa: E402

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
OUT = os.path.join(HERE, "out")

# functions whose calls and self time (TIMED) or self time only (SELF_ONLY)
# are per-layer metrics; a name that is no longer wrapped reads null
TIMED = ["modules.projective_cover", "modules.top_multiplicities", "modules.hom_space",
         "modules.is_iso", "linalg.RowSpace.add", "linalg.RowSpace.reduce",
         "linalg.Matrix.kernel_basis", "linalg.det_int", "algebra.from_quiver",
         "invariants.gldim", "invariants.gorenstein", "invariants.smooth",
         "invariants.cartan_matrix", "recollement.stratifying_check",
         "recollement.ladder_estimate"]
SELF_ONLY = ["algebra.algebra_from_json", "cli.load_algebra", "algebra.tensor",
             "algebra.opposite", "algebra.triangular", "algebra.corner",
             "algebra.quotient_by_idempotent_ideal", "algebra.enveloping",
             "corpus.generate"]
SYZYGY_STEP = ["modules.pd", "modules.min_resolution"]
COUNTERS = ["modules.syzygies_built", "modules.syzygy_dim_sum",
            "modules.cover_source_dim_sum", "modules.is_iso.iso",
            "modules.is_iso.not_iso", "modules.is_iso.undetermined",
            "modules.pd.finite", "modules.pd.infinite", "modules.pd.unknown_cutoff",
            "modules.pd.unknown_guard"]


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# -- set-up ------------------------------------------------------------------


class SetUp:
    """The set-up, each time in a fresh interpreter.  Every run must write
    the same inputs; ``times`` collects the set-up times."""

    def __init__(self, workload: str, corpus_seed: int, in_dir: str):
        self.argv = [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload,
                     "--corpus-seed", str(corpus_seed), "--out", in_dir]
        self.in_dir = in_dir
        self.times: list[float] = []
        self.scaled: list[float] = []
        self.digest = None

    def run(self) -> None:
        shutil.rmtree(self.in_dir, ignore_errors=True)
        proc = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            fail(f"set-up failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if self.digest is not None and doc["digest"] != self.digest:
            fail("set-up is not deterministic: two runs wrote different inputs")
        self.digest = doc["digest"]
        self.times.append(doc["setup_s"])
        self.scaled.append(doc["setup_s"] * yardstick.REFERENCE_S / doc["yardstick_s"])


# -- the closed loop -----------------------------------------------------------


def send(cli, argv: list[str]) -> tuple[int, str]:
    """One request: the CLI's exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Loop:
    """Sends requests one at a time and keeps every answer for checking."""

    def __init__(self, cli, requests: list[dict], in_dir: str):
        self.cli = cli
        self.requests = requests
        self.argv = [inputs.resolve_argv(r["argv"], in_dir) for r in requests]
        self.latency: list[float] = []
        self.sticks: list[tuple[float, float]] = []  # yardstick before, after
        self.executed: list[int] = []
        self.codes: list[int] = []
        self.outputs: list[str] = []

    def run_pass(self, order: list[int], tracer=None) -> float:
        """One request after the other; returns the summed latency.  The
        yardstick is measured between every two requests, and before the
        first and after the last.  A request's garbage is collected after
        it, outside the timed part, and what survives is frozen out of
        later collections, so the next request starts from a clean heap
        whose collections cost what they would in a fresh CLI process."""
        cli = self.cli
        total = 0.0
        before = yardstick.measure()
        for i in order:
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            code, out = send(cli, self.argv[i])
            dt = time.perf_counter() - t0
            gc.collect()
            gc.freeze()
            after = yardstick.measure()
            total += dt
            self.latency.append(dt)
            self.sticks.append((before, after))
            before = after
            self.executed.append(i)
            self.codes.append(code)
            self.outputs.append(out)
        return total


def check(loop: Loop, reference: dict | None) -> tuple[list[bool], list[bool], list[str]]:
    """Per executed request: failed?, undetermined?; plus failure notes."""
    first: dict[int, str] = {}
    failed, undetermined, notes = [], [], []
    for i, code, out in zip(loop.executed, loop.codes, loop.outputs):
        req = loop.requests[i]
        bad = []
        und = False
        if code != 0:
            bad.append(f"exit {code}")
        else:
            if first.setdefault(i, out) != out:
                bad.append("output differs from the first pass")
            try:
                report = json.loads(out)
                und = verdicts.record(req["kind"], report)["undetermined"]
                if reference is not None:
                    bad += verdicts.compare(req["kind"], reference[req["id"]], report)
            except (ValueError, KeyError, TypeError) as e:
                bad.append(f"unreadable report: {type(e).__name__}: {e}")
        failed.append(bool(bad))
        undetermined.append(und)
        if bad:
            notes.append(f"{req['id']}: {'; '.join(bad[:3])}")
    return failed, undetermined, notes


def load_reference(workload: str, corpus_seed: int, requests: list[dict]) -> dict | None:
    path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc["seeds"].get(str(corpus_seed))
    if entries is None:
        return None
    missing = [r["id"] for r in requests if r["id"] not in entries]
    if missing:
        fail(f"reference has no entry for {len(missing)} requests, e.g. {missing[0]}")
    return entries


def another_fits(t_start: float, t_last: float, seconds: float) -> bool:
    """Whether one more step, as long as the one begun at ``t_last``, is
    expected to end within ``seconds`` of ``t_start``."""
    now = time.perf_counter()
    return (now - t_start) + (now - t_last) <= seconds


def source_lines() -> int:
    pkg = os.path.join(inputs.SRC, "homkit")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def tail_rank(pool: int) -> float:
    """The highest percentile with at least ten requests of one pass beyond it."""
    return max(0.0, 1.0 - 10.0 / pool)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


# -- traced run --------------------------------------------------------------


def layer_metrics(tracer, calls, self_s, total_s) -> tuple[dict, list[str]]:
    """The per-layer metrics, and the named functions that no longer exist."""
    from spans import LAYERS
    wrapped = tracer.wrapped()
    m, missing = {}, []

    def put(name, value, unit, span=None):
        if span is not None and span not in wrapped:
            missing.append(span)
            value = None
        m[name] = {"value": value, "unit": unit}

    step = [s for s in SYZYGY_STEP if s in wrapped]
    missing += [s for s in SYZYGY_STEP if s not in wrapped]
    m["modules.syzygy_step.self_s"] = {
        "value": sum(self_s[s] for s in step) if step else None, "unit": "s"}
    for c in COUNTERS:
        m[c] = {"value": tracer.counters[c], "unit": "count"}
    for span in TIMED:
        put(f"{span}.calls", calls[span], "count", span)
        put(f"{span}.self_s", self_s[span], "s", span)
    iso = calls["modules.is_iso"]
    put("modules.is_iso.hit_ratio",
        tracer.counters["modules.is_iso.iso"] / iso if iso else 0.0, "ratio", "modules.is_iso")
    for span in SELF_ONLY:
        put(f"{span}.self_s", self_s[span], "s", span)
    put("corpus.generate.total_s", total_s["corpus.generate"], "s", "corpus.generate")
    put("recollement.stratify_search.nodes", calls["recollement.stratify_search"], "count",
        "recollement.stratify_search")
    total = sum(self_s.values())
    for layer in LAYERS:
        s = sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
        m[f"{layer}.self_s"] = {"value": s, "unit": "s"}
        m[f"{layer}.share"] = {"value": s / total if total else 0.0, "unit": "ratio"}
    return m, sorted(set(missing))


def traced_setup(tracer, workload: inputs.Workload, corpus_seed: int, out_dir: str) -> None:
    """Generate the inputs once more in this process, under the tracer, so
    set-up work (``corpus.generate``, ``from_quiver``) shows per layer."""
    tracer.request = -1
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs.generate(workload, corpus_seed, out_dir)


def run_traced(loop: Loop, wl: inputs.Workload, corpus_seed: int, seconds: float,
               rng: random.Random, run_dir: str) -> tuple[dict, list[str], list[str]]:
    """Alternate untraced and traced passes over the same order; per-layer
    metrics come from the first traced pass, and every later one must
    repeat its call counts and counters."""
    from spans import Tracer
    tracer = Tracer()
    n = len(loop.requests)
    pairs, first, problems = [], None, []
    t_start = last = time.perf_counter()
    while not pairs or another_fits(t_start, last, seconds):
        last = time.perf_counter()
        order = rng.sample(range(n), n)
        plain = loop.run_pass(order)
        tracer.reset()
        tracer.install()
        try:
            traced_setup(tracer, wl, corpus_seed, os.path.join(run_dir, "traced-setup"))
            traced = loop.run_pass(order, tracer)
        finally:
            tracer.uninstall()
        pairs.append((plain, traced))
        summary = tracer.summary()
        if first is None:
            first = (summary, tracer.counters)
            tracer.write(os.path.join(run_dir, "spans.jsonl.gz"),
                         [r["id"] for r in loop.requests])
        elif (summary[0], tracer.counters) != (first[0][0], first[1]):
            problems.append("call counts or work counters differ between traced passes")
    (calls, self_s, total_s, per_request), tracer.counters = first
    for req, root, own in per_request:
        if not math.isclose(root, own, rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"request {req}: self times sum to {own!r}, not {root!r}")
    metrics, missing = layer_metrics(tracer, calls, self_s, total_s)
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(t / u for u, t in pairs), "unit": "ratio"}
    return metrics, missing, problems


def run_plain(loop: Loop, setup: SetUp, seconds: float, rng: random.Random) -> dict:
    """Untraced passes with a set-up after each; the end-to-end metrics
    except ``decided_rate``."""
    n = len(loop.requests)
    pass_s: list[float] = []
    t_start = last = time.perf_counter()
    while not pass_s or another_fits(t_start, last, seconds):
        last = time.perf_counter()
        if not pass_s:  # file order, so the memory read after it is the same work
            pass_s.append(loop.run_pass(list(range(n))))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            pass_s.append(loop.run_pass(rng.sample(range(n), n)))
        setup.run()  # spread the set-ups over the run, like the passes
    while len(setup.times) < SETUP_REPEATS:
        setup.run()
    typical = sorted(statistics.median(ts)
                     for ts in by_request(loop, scale(loop.latency, loop.sticks)))
    wall = sorted(statistics.median(ts) for ts in by_request(loop, loop.latency))
    q = tail_rank(n)
    print(f"{len(pass_s)} passes of {', '.join(f'{t:.2f}' for t in pass_s)} s wall "
          f"({len(loop.latency) / sum(pass_s):.3f} requests/s over all passes); "
          f"latency_tail_ms is p{100 * q:.2f} of {n} requests, {len(loop.latency)} samples")
    print(f"median yardstick {statistics.median(s for pair in loop.sticks for s in pair) * 1e3:.3f}"
          f" ms (reference {yardstick.REFERENCE_S * 1e3:.3f} ms); unscaled wall clock, not "
          f"gated: {n / sum(wall):.3f} requests/s, p50 {statistics.median(wall) * 1e3:.3f} ms, "
          f"tail {nearest_rank(wall, q) * 1e3:.3f} ms, set-up {statistics.median(setup.times):.4f} s")
    return {
        "requests_per_s": {"value": n / sum(typical), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(typical) * 1000.0, "unit": "ms"},
        "latency_tail_ms": {"value": nearest_rank(typical, q) * 1000.0, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup.scaled), "unit": "s"},
    }


def by_request(loop: Loop, times: list[float]) -> list[list[float]]:
    """The executed requests' times, grouped by request."""
    out: list[list[float]] = [[] for _ in loop.requests]
    for i, t in zip(loop.executed, times):
        out[i].append(t)
    return out


def scale(times: list[float], sticks: list[tuple[float, float]]) -> list[float]:
    """Each time at the host's reference speed: multiplied by the reference
    yardstick time over the median of the four yardstick times nearest to
    it (two before the request, two after)."""
    out = []
    for k, t in enumerate(times):
        near = [sticks[k][0], sticks[k][1]]
        if k > 0:
            near.append(sticks[k - 1][0])
        if k + 1 < len(sticks):
            near.append(sticks[k + 1][1])
        out.append(t * yardstick.REFERENCE_S / statistics.median(near))
    return out


# -- main --------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description="homkit per-request CLI benchmark")
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="request-order seed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus-seed", type=int, default=inputs.REFERENCE_SEED,
                   help=f"corpus seed of the pool (reference {inputs.REFERENCE_SEED}, "
                        f"held out {inputs.HELD_OUT_SEED})")
    args = p.parse_args()

    wl = inputs.WORKLOADS[args.workload]
    run_dir = os.path.join(OUT, f"{wl.name}-c{args.corpus_seed}")
    in_dir = os.path.join(run_dir, "inputs")
    setup = SetUp(wl.name, args.corpus_seed, in_dir)
    setup.run()
    inputs.import_homkit()
    from homkit import cli

    with open(os.path.join(in_dir, "requests.json"), encoding="utf-8") as fh:
        requests = json.load(fh)
    reference = load_reference(wl.name, args.corpus_seed, requests)
    loop = Loop(cli, requests, in_dir)
    rng = random.Random(args.seed)
    print(f"workload {wl.name}: {wl.why}")
    print(f"environment (not gated): python {platform.python_version()}, "
          f"nproc {os.cpu_count()}, src/homkit {source_lines()} lines")
    print(f"pool {len(requests)} requests from corpus seed {args.corpus_seed}; "
          f"order seed {args.seed}; reference "
          f"{'recorded' if reference is not None else 'none (exit/determinism only)'}")
    if args.trace:
        metrics, missing, problems = run_traced(loop, wl, args.corpus_seed, args.seconds,
                                                rng, run_dir)
    else:
        metrics, missing, problems = run_plain(loop, setup, args.seconds, rng), [], []
        print(f"setup_s runs: {', '.join(f'{t:.4f}' for t in setup.times)}")

    failed, undetermined, notes = check(loop, reference)
    attempted = len(loop.executed)
    n_failed = sum(failed)
    und_rate = sum(undetermined) / attempted
    print(f"attempted {attempted}, failed {n_failed}, error_rate {n_failed / attempted:.4f}, "
          f"undetermined_rate {und_rate:.4f}")
    for note in notes[:10]:
        print(f"  FAIL {note}")
    for prob in problems[:10]:
        print(f"  PROBLEM {prob}")
    if missing:
        print(f"missing (no longer in homkit, reported as null): {', '.join(missing)}")
    if args.trace:
        metrics["verdict.undetermined_rate"] = {"value": und_rate, "unit": "ratio"}
        metrics["verdict.error_rate"] = {"value": n_failed / attempted, "unit": "ratio"}
    else:
        metrics["decided_rate"] = {"value": 1.0 - und_rate, "unit": "ratio"}
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": n_failed == 0 and not problems, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
