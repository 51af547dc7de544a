"""numonoid benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload lift --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from the
checkout's src/ (and nowhere else).  One caller issues one operation after
another (a closed loop, one client, no extra threads).  The workload's fixed
batch is repeated until --seconds have passed; library caches are cleared
at every batch start (and before every op where the workload says so).
Every output is compared with its frozen digest in references.json.

--trace 0 prints the end-to-end metrics:
  setup_s      one set-up: fresh import of the package, building the seeded
               batch, loading the references (median of several)
  wall_s       one batch: every op, and every oracle check of the direct
               workload, each at its median over the run's repeats
  cpu_s        the same sum in process CPU time
  op_ms_p50    median over the batch's ops of each op's median time
  peak_rss_mb  peak resident set of this process (it runs one workload)
--trace 1 alternates untraced and traced batches and prints the per-layer
metrics of spans.PER_LAYER_UNITS, with trace.overhead_frac (traced batch
over untraced, minus 1).  Counts come from one traced batch and must repeat
exactly; per-layer times are as measured, the least over traced batches.

Host speed.  The 2-vCPU KVM guest this was tuned on runs Python up to 1.7x
slower, on both vCPUs at once, for spells of seconds to minutes, so raw
times of identical work spread by about 20% between runs.  Every time in
the end-to-end metrics is therefore taken relative to a fixed pure-Python
calibration kernel (it shares no code with numonoid) timed right before and
right after the measured interval, and restated in seconds at the speed at
which that kernel takes REFERENCE_KERNEL_S:

    time = measured time * REFERENCE_KERNEL_S / kernel time around it

The kernel runs with cyclic garbage collection switched off, so the heap
numonoid builds up and any change it makes to the collector's settings do
not reach it: the kernel follows the host's speed only, and a change to
numonoid moves the measured time and not the kernel, so it shows in full.  The line before the result records the host, its load average,
the kernel's median time (the host's speed during the run) and the raw
per-op times, so raw and scaled figures can both be read.

Reported beside the metrics on that line: fail_frac (failed over attempted
ops; the result's attempted/failed carry the same), verify_s (direct: the
oracle closure checks), and every failure's key.  No batch has the 21 or
more ops a percentile above the median needs to leave ten ops beyond it,
so no latency tail is reported.

The last line of standard output is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, closure_check, digest, execute  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 9
MIN_BATCHES = 3  # per timed series, even past --seconds
OP_LIMIT_S = 30.0  # each op's own deadline=; the dearest op takes about 1 s
# measuring stops after --seconds plus the batch under way (a traced pair
# of batches: a few seconds); this keeps the whole run well inside 180 s
MAX_SECONDS = 120.0
# the calibration kernel's time on the tuning host at its faster speed
REFERENCE_KERNEL_S = 0.002


def _kernel(value=250, gens=(7, 11, 13, 17)):
    # recursion, tuple building, list and dict traffic: the interpreter work
    # numonoid does, in code that never changes with it
    out: dict = {}
    counts = [0] * len(gens)

    def rec(i, v):
        if i < 0:
            if v == 0:
                z = tuple(counts)
                out.setdefault(sum(z), []).append(z)
            return
        g = gens[i]
        for c in range(v // g + 1):
            counts[i] = c
            rec(i - 1, v - c * g)
        counts[i] = 0

    rec(len(gens) - 1, value)
    return out


def calibrate() -> float:
    """The calibration kernel's time now: the better of two runs, with the
    cyclic garbage collector off so that only the host's speed moves it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def import_package():
    """Import numonoid (and its CLI) afresh from SRC; refuse any other copy."""
    for name in [n for n in sys.modules if n == "numonoid" or n.startswith("numonoid.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    nm = importlib.import_module("numonoid")
    importlib.import_module("numonoid.cli")
    origin = Path(nm.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"numonoid imported from {origin}, not from {SRC}")
    return nm


def load_references() -> dict:
    with open(HERE / "references.json") as fh:
        return json.load(fh)["cases"]


def setup(workload, seed: int, tiny: bool):
    """One set-up: import, build the seeded batch, load references."""
    t0 = time.perf_counter()
    nm = import_package()
    batch = workload.batch(seed, tiny)
    refs = load_references()
    return time.perf_counter() - t0, nm, batch, refs


class Series:
    """Repeated runs of one batch, recording the time of every op."""

    def __init__(self, nm, workload, batch, refs):
        self.nm, self.workload, self.batch = nm, workload, batch
        self.refs = refs
        self.kernel: list[float] = []
        self.raw_wall: list[list[float]] = [[] for _ in batch]
        # scaled to the reference speed
        self.op_wall: list[list[float]] = [[] for _ in batch]
        self.op_cpu: list[list[float]] = [[] for _ in batch]
        self.op_verify: list[list[float]] = [[] for _ in batch]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_batch(self) -> None:
        nm, clock, cpu = self.nm, time.perf_counter, time.process_time
        outputs = [None] * len(self.batch)
        nm.clear_caches()
        before = calibrate()
        for i, op in enumerate(self.batch):
            if self.workload.clear_per_op:
                nm.clear_caches()
            verify = None
            t0, c0 = clock(), cpu()
            try:
                outputs[i] = execute(nm, op, time.monotonic() + OP_LIMIT_S)
            except nm.MonoidError as exc:
                outputs[i] = exc
            wall = clock() - t0
            if op.oracle and not isinstance(outputs[i], Exception):
                v0 = clock()
                try:
                    ok = closure_check(nm, outputs[i])
                except nm.MonoidError as exc:
                    ok = exc
                verify = clock() - v0
                if ok is not True:
                    outputs[i] = ValueError(f"oracle closure check failed: {ok}")
            busy = cpu() - c0  # the op and its oracle check
            after = calibrate()
            scale = REFERENCE_KERNEL_S / ((before + after) / 2)
            self.kernel.append(after)
            self.raw_wall[i].append(wall)
            self.op_wall[i].append(wall * scale)
            self.op_cpu[i].append(busy * scale)
            if verify is not None:
                self.op_verify[i].append(verify * scale)
            before = after
        self.check(outputs)

    def check(self, outputs) -> None:
        for op, out in zip(self.batch, outputs):
            self.attempted += 1
            ref = self.refs.get(op.key)
            if isinstance(out, Exception):
                problem = f"{type(out).__name__}: {out}"
            elif ref is None:
                problem = "no frozen reference"
            elif digest(out) != ref["digest"]:
                problem = f"digest {digest(out)} != {ref['digest']}"
            else:
                continue
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{op.key}: {problem}")

    @property
    def batches(self) -> int:
        return len(self.raw_wall[0])

    @staticmethod
    def medians(samples: list[list[float]]) -> list[float]:
        """Each op's median over the run's repeats."""
        return [statistics.median(times) for times in samples if times]

    def batch_time(self) -> float:
        """One batch: ops and oracle checks, each at its median."""
        return sum(self.medians(self.op_wall)) + sum(self.medians(self.op_verify))


def host_info() -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; return (details, result) dictionaries."""
    workload = WORKLOADS[workload_name]
    setups = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        elapsed, nm, batch, refs = setup(workload, seed, tiny)
        after = calibrate()
        setups.append(elapsed * REFERENCE_KERNEL_S / ((before + after) / 2))
    start = time.monotonic()
    plain = Series(nm, workload, batch, refs)
    details = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "host": host_info(),
        "ops_per_batch": len(batch),
    }

    def more(series_list) -> bool:
        if any(s.batches < MIN_BATCHES for s in series_list):
            return True
        return time.monotonic() - start < seconds

    if not trace:
        while more([plain]):
            plain.run_batch()
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": plain.batch_time(),
            "cpu_s": sum(plain.medians(plain.op_cpu)),
            "op_ms_p50": statistics.median(plain.medians(plain.op_wall)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        series = [plain]
    else:
        tracer = spans.Tracer()
        traced = Series(nm, workload, batch, refs)
        per_batch = []
        while more([plain, traced]):
            plain.run_batch()
            tracer.clear()
            with spans.traced(tracer):
                traced.run_batch()
            per_batch.append(spans.layer_metrics(tracer.spans))
        metrics = {}
        for name in per_batch[0]:
            values = [m[name] for m in per_batch]
            # counts repeat exactly; times take the least-disturbed batch
            metrics[name] = values[0] if name in spans.COUNT_METRICS else min(values)
        metrics["trace.overhead_frac"] = traced.batch_time() / plain.batch_time() - 1
        details["counts_repeat"] = all(
            m[name] == per_batch[0][name]
            for m in per_batch
            for name in spans.COUNT_METRICS
        )
        details["spans_per_batch"] = len(tracer.spans)
        units = spans.PER_LAYER_UNITS
        series = [plain, traced]

    attempted = sum(s.attempted for s in series)
    failed = sum(s.failed for s in series)
    details.update(
        batches=plain.batches,
        kernel_ms_median=statistics.median(plain.kernel) * 1e3,
        raw_op_ms_median=[round(t * 1e3, 2) for t in plain.medians(plain.raw_wall)],
        raw_wall_s=sum(plain.medians(plain.raw_wall)),
        fail_frac=failed / attempted,
        failures=[f for s in series for f in s.failures],
    )
    if any(plain.op_verify):
        details["verify_s"] = sum(plain.medians(plain.op_verify))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be between 0 and {MAX_SECONDS:g}")
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError, LookupError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
