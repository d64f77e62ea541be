"""Run one workload of the cgf benchmark and print its metrics.

    python3 bench/run.py --workload homotopy --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports `cgf` from `src/`.  With
`--trace 0` the workload runs closed-loop (one client, one thread) for
`--seconds`, stopping at the first cycle boundary after that, and reports the
end-to-end metrics.  With `--trace 1` it runs a fixed prefix of the same op
stream twice, untraced and then traced, and reports the per-layer metrics and
the tracing overhead.  The last line of stdout is the JSON result; the line
before it is a report with the environment, digests and sample counts, also
written to `bench/out/`.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import signal
import sys
import warnings
from collections import Counter
from time import perf_counter

START = perf_counter()

MIN_OPS = 100      # so that ten samples lie beyond the p90
DIGEST_OPS = 100   # ops whose inputs and witnesses the digests cover
SETUP_REPEATS = 5  # setups per timed run; setup_s is their median

END_TO_END = {"ops_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer span groups: metric prefix -> span names
GROUPS = {
    "matrices.matmul": ("matrices.Mat.__matmul__", "matrices.Mat.__mul__"),
    "matrices.det": ("matrices.Mat.det",),
    "matrices.inverse": ("matrices.Mat.inverse",),
    "matrices.membership": ("matrices.membership",),
    "matrices.right_inverse": ("matrices.right_inverse",),
    "words.eval": ("words.GenWord.eval",),
    "words.apply": ("words.apply_word_right", "words.apply_word_left",
                    "words.apply_word_to_row"),
    "reduce.complete": ("reduce.complete_um_linear", "reduce.complete_sp",
                        "reduce.complete_orth"),
    "reduce.row": ("reduce.reduce_row_linear", "reduce.reduce_row_symplectic"),
    "factor.whitehead": ("factor.whitehead_linear",
                         "factor.whitehead_symplectic"),
    "factor.transvection": ("factor.transvection_factor",),
    "factor.row_equiv": ("factor.common_perp", "factor.two_row_equiv",
                         "factor.roitman"),
    "homotopy.construct": ("homotopy.Homotopy.from_word",
                           "homotopy.Homotopy.from_matrix"),
    "homotopy.commute": ("homotopy.homotopy_commute_linear",
                         "homotopy.homotopy_commute_symplectic",
                         "homotopy.homotopy_commute_orthogonal"),
    "homotopy.commutator": ("homotopy.commutator_witness",),
    "homotopy.transport": ("homotopy.vaserstein_transport",),
    "orthoquot.quotient": ("orthoquot.vaserstein_quotient",),
    "orthoquot.commutator": ("orthoquot.commutator_harness",
                             "orthoquot.commutator_harness_hso"),
    "localglobal.split": ("localglobal.quillen_split",),
    "oracle.enumerate": ("oracle.enumerate_orbits",),
    "oracle.certify": ("oracle.certify_equivalence",),
}
CALLS = ("matrices.matmul", "matrices.inverse", "matrices.membership",
         "words.eval", "words.apply", "reduce.complete", "reduce.row",
         "oracle.enumerate", "oracle.certify")
CLI_EXITS = ("0", "1", "2", "exc")


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def commit_of(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------------------
# speed calibration
#
# The machine this benchmark was defined on is shared, and its speed drifts
# by up to 1.8x in regimes lasting seconds (measured: the same work took
# 0.33 s and 0.60 s within a minute, with process time equal to wall time).
# So every SAMPLE_INTERVAL_S a timer signal runs a short stdlib-only
# reference loop, shaped like cgf's inner loops (small immutable values,
# modular arithmetic, tuple keys), in the measured thread itself, also in the
# middle of an op.  The loop's own time is taken out of the op's time, and
# the op's time is scaled by REF_NOMINAL_S over the median reference time
# sampled during the op (or the nearest samples, for short ops).  A sampler
# thread tracks worse: it can run on the other core, whose speed differs.
# Reported times read as "on a machine where the reference loop takes
# REF_NOMINAL_S"; raw times are in the report.

REF_NOMINAL_S = 0.0005
SAMPLE_INTERVAL_S = 0.01
MIN_SAMPLES = 9


class _Residue:
    __slots__ = ("n", "p")

    def __init__(self, n, p):
        self.n = n
        self.p = p

    def __add__(self, other):
        return _Residue(self.n, (self.p + other.p) % self.n)

    def __mul__(self, other):
        return _Residue(self.n, (self.p * other.p) % self.n)


def reference_work() -> int:
    a = [[_Residue(9, 3 * i + j) for j in range(4)] for i in range(4)]
    seen = {}
    for _ in range(6):
        a = [[sum((x * y for x, y in zip(row, col)), _Residue(9, 0))
              for col in zip(*a)] for row in a]
        seen[tuple(v.p for r in a for v in r)] = True
    return len(seen)


class Speed:
    """Reference-loop times sampled by SIGALRM in the main thread; use as a
    context manager around the measured region."""

    def __init__(self):
        self.times = []
        self.samples = []
        self.spent = 0.0  # seconds inside the handler so far
        self._busy = False
        self._old = None

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a slow sample overran the interval
            return
        self._busy = True
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.times.append(t1)
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self._busy = False

    def clock(self) -> float:
        """Wall time minus the time spent sampling."""
        return perf_counter() - self.spent

    def scale(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S over the median reference time during [t0, t1]
        (wall times), widened to the MIN_SAMPLES samples nearest its
        middle."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2,
                            len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REF_NOMINAL_S / statistics.median(self.samples[lo:hi])

    def summary(self):
        return {"nominal_ms": 1e3 * REF_NOMINAL_S,
                "samples": len(self.samples),
                "median_ms": 1e3 * statistics.median(self.samples),
                "min_ms": 1e3 * min(self.samples),
                "max_ms": 1e3 * max(self.samples)}


def purge_cgf():
    for name in [m for m in sys.modules if m == "cgf" or m.startswith("cgf.")]:
        del sys.modules[name]


def setup(cls, seed: int, root: str, repeats: int):
    """Fresh `import cgf`, workload state and the first cycle of inputs,
    `repeats` times; the last set-up is the one that runs.  Returns the raw
    and the scaled set-up times."""
    spans = []
    with Speed() as speed:
        for _ in range(repeats):
            purge_cgf()
            t0, c0 = perf_counter(), speed.clock()
            cgf = importlib.import_module("cgf")
            wl = cls(cgf, seed, root)
            stream = wl.stream()
            first = []
            for case in stream:
                first.append(case)
                if case.cycle_end:
                    break
            spans.append((t0, perf_counter(), speed.clock() - c0))
    raw = [dt for _, _, dt in spans]
    scaled = [dt * speed.scale(t0, t1) for t0, t1, dt in spans]
    return cgf, wl, itertools.chain(first, stream), raw, scaled


def run_op(case, speed):
    """((wall start, wall end), latency, result, exception), with only
    `case.run()` timed and the speed samples taken during it left out."""
    w0, c0 = perf_counter(), speed.clock()
    try:
        result, exc = case.run(), None
    except Exception as e:  # an escaping exception is a failed op
        result, exc = None, e
    return (w0, perf_counter()), speed.clock() - c0, result, exc


def check_op(case, result, exc):
    if exc is not None:
        return "fail", f"raised {type(exc).__name__}".encode(), 0
    try:
        return case.check(result)
    except Exception as e:  # output the check cannot even read
        return "wrong", f"check raised {type(e).__name__}".encode(), 0


class Digests:
    def __init__(self):
        self.inputs = hashlib.sha256()
        self.witnesses = hashlib.sha256()
        self.n = 0

    def add(self, case, blob: bytes):
        if self.n < DIGEST_OPS:
            self.inputs.update(json.dumps(case.desc, sort_keys=True).encode()
                               + b"\n")
            self.witnesses.update(blob + b"\n")
        self.n += 1

    def report(self):
        return {"ops": min(self.n, DIGEST_OPS),
                "inputs_sha256": self.inputs.hexdigest(),
                "witnesses_sha256": self.witnesses.hexdigest()}


def timed_run(cases, seconds: float):
    """Closed loop until `seconds` have passed, at least MIN_OPS ops are done
    and a cycle has ended; checks run between ops, outside the timing.
    Returns raw and scaled latencies."""
    spans, raw, labels, statuses, failures = [], [], [], Counter(), Counter()
    digests = Digests()
    with Speed() as speed:
        t_end = perf_counter() + seconds
        hard_end = t_end + max(60.0, seconds)
        for case in cases:
            span, dt, result, exc = run_op(case, speed)
            status, blob, _ = check_op(case, result, exc)
            spans.append(span)
            raw.append(dt)
            labels.append(case.label)
            statuses[status] += 1
            if status != "ok":
                failures[f"{case.label}:{status}"] += 1
            digests.add(case, blob)
            now = perf_counter()
            if now >= hard_end or (case.cycle_end and now >= t_end
                                   and len(spans) >= MIN_OPS):
                break
    scaled = [dt * speed.scale(*span) for span, dt in zip(spans, raw)]
    return raw, scaled, labels, statuses, failures, digests, speed


def end_to_end(cases, seconds, setup_raw, setup_scaled):
    first_op = perf_counter() - START
    raw, lat, labels, statuses, failures, digests, speed = timed_run(
        cases, seconds)
    n = len(lat)
    ordered = sorted(lat)
    metrics = {
        "ops_s": n / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(ordered),
        "latency_p90_ms": 1e3 * percentile(ordered, 0.9),
        "ok_frac": statuses["ok"] / n,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    by_label = {}
    for label, dt in zip(labels, lat):
        by_label.setdefault(label, []).append(dt)
    ordered_raw = sorted(raw)
    report = {
        "ops": n, "p90_samples_beyond": n - math.ceil(0.9 * n),
        "failed_frac": (n - statuses["ok"]) / n,
        "failures": dict(sorted(failures.items())),
        "raw": {"ops_s": n / sum(raw),
                "latency_p50_ms": 1e3 * statistics.median(ordered_raw),
                "latency_p90_ms": 1e3 * percentile(ordered_raw, 0.9),
                "setup_s": statistics.median(setup_raw)},
        "reference": speed.summary(),
        "case_p50_ms": {k: 1e3 * statistics.median(v)
                        for k, v in sorted(by_label.items())},
        "start_to_first_op_s": first_op,
        "setup_runs_s": setup_raw, "digests": digests.report()}
    return metrics, statuses, n, report


def traced(cgf, wl, cases, out_dir, seed):
    """Each op runs untraced and then traced, back to back, so both see the
    same machine speed; the tracer is installed only around the second."""
    from tracer import Tracer
    ops = list(itertools.islice(cases, wl.trace_ops))
    tracer = Tracer()
    lat_a, lat_b, statuses, gens_out, extra = [], [], Counter(), 0, Counter()
    digests = Digests()
    with Speed() as speed:
        t_first = perf_counter()
        for i, case in enumerate(ops):
            _, dt, result, exc = run_op(case, speed)
            lat_a.append(dt)
            blob_a = check_op(case, result, exc)[1]
            tracer.install(cgf)
            try:
                tracer.begin_op(i)
                _, dt, result, exc = run_op(case, speed)
                tracer.begin_op(-1)
                with tracer.paused():
                    status, blob, gens = check_op(case, result, exc)
            finally:
                tracer.uninstall()
            lat_b.append(dt)
            if blob != blob_a:
                status = "wrong"  # tracing changed a result
            extra.update(wl.op_stats(result, exc))
            statuses[status] += 1
            gens_out += gens
            digests.add(case, blob)
        t_last = perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir,
                                    f"spans-{wl.name}-seed{seed}.jsonl"))

    n = len(ops)
    per_ms = 1e3 * speed.scale(t_first, t_last) / n
    m = {
        "rings.values_per_op": tracer.counts["rings.values"] / n,
        "rings.key_calls_per_op": tracer.counts["rings.key"] / n,
        "rings.arith_calls_per_op": tracer.counts["rings.arith"] / n,
    }
    for group, names in GROUPS.items():
        calls, self_s = tracer.group(names)
        if group in CALLS:
            m[f"{group}.calls"] = calls / n
        m[f"{group}.self_ms"] = self_s * per_ms
    m["matrices.det.calls_le6"] = tracer.counts["det.le6"] / n
    m["matrices.det.calls_gt6"] = tracer.counts["det.gt6"] / n
    m["matrices.membership.repeat_frac"] = ratio(
        tracer.repeats["membership"], tracer.calls["matrices.membership"])
    m["words.eval.gens"] = tracer.counts["words.eval.gens"] / n
    m["words.eval.repeat_frac"] = ratio(tracer.repeats["eval"],
                                        tracer.calls["words.GenWord.eval"])
    m["words.gens_out"] = gens_out / n
    roit = tracer.calls["factor.roitman"]
    m["factor.roitman.success_frac"] = ratio(
        roit - tracer.raised[("factor.roitman", "IdealNotComaximal")], roit)
    splits = tracer.calls["localglobal.quillen_split"]
    m["localglobal.split.success_frac"] = ratio(
        splits - tracer.raised[("localglobal.quillen_split",
                                "SplitExponentExhausted")], splits)
    enum_ms = tracer.total_s["oracle.enumerate_orbits"] * per_ms * n
    m["oracle.objects_per_s"] = ratio(1e3 * tracer.counts["oracle.objects"],
                                      enum_ms)
    m["cli.self_ms"] = tracer.layer_self_s("cli") * per_ms
    m["cli.stdout_bytes"] = extra["cli.stdout_bytes"] / n
    for code in CLI_EXITS:
        m[f"cli.exit.{code}"] = extra[f"cli.exit.{code}"] / n
    m["trace_overhead_frac"] = sum(lat_b) / sum(lat_a) - 1.0
    report = {"ops": n, "untraced_s": sum(lat_a), "traced_s": sum(lat_b),
              "spans": len(tracer.spans), "digests": digests.report(),
              "calls": dict(sorted(tracer.calls.items())),
              "counts": dict(sorted(tracer.counts.items())),
              "raised": {f"{k[0]}:{k[1]}": v
                         for k, v in sorted(tracer.raised.items())}}
    return m, statuses, n, report


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac") or name.startswith("cli.exit."):
        return "frac"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def ratio(a, b) -> float:
    return a / b if b else 0.0


def run_all(workloads, seed: int, seconds: float) -> int:
    """Every workload, timed and traced, each in a fresh interpreter, one
    after another; prints every metric with its unit."""
    import subprocess
    rc = 0
    for name in workloads:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload",
                    name, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                rc = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"{name} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for key, val in result["metrics"].items():
                print(f"  {key:36} {val['value']:14.6g} {val['unit']}")
    return rc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="homotopy, factor, oracle, cli, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cgf", "__init__.py")):
        return fail(f"no cgf sources under {src}; run from a checkout root")
    # the word-length cap changes what the library accepts
    if "CGF_WORD_LIMIT" in os.environ:
        return fail("CGF_WORD_LIMIT is set; unset it to run the benchmark")
    sys.path.insert(0, src)
    warnings.simplefilter("ignore")  # complete_orth warns at its boundary size

    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(WORKLOADS, args.seed, args.seconds)
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(WORKLOADS)}")
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    cgf, wl, cases, setup_raw, setup_scaled = setup(cls, args.seed, root,
                                                    repeats)
    out_dir = os.path.join(root, "bench", "out")
    if args.trace:
        metrics, statuses, n, report = traced(cgf, wl, cases, out_dir,
                                              args.seed)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, statuses, n, report = end_to_end(cases, args.seconds,
                                                  setup_raw, setup_scaled)
        units = END_TO_END
    report.update({
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "commit": commit_of(root),
        "CGF_WORD_LIMIT": "unset", "workers": "never passed"})
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{wl.name}-seed{args.seed}-"
                                    f"trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1,
                  sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": statuses["wrong"] == 0,
        "attempted": n,
        "failed": n - statuses["ok"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
