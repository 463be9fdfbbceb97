"""Benchmark for logspaces: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the timed loop runs untraced and the result carries the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the loop runs
untraced for half the time and traced for the other half; the result
carries the per-layer metrics, and the spans go to ``bench/results/``.
The last line of standard output is the result; the exit code is 0 only if
every op passed its check and the digest matched.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3  # set-up is repeated and its median reported, since one sample is noisy
IMPORTS = 3  # children that time `import logspaces`; their median counts toward set-up
SETUP_REFERENCES = 8  # reference calls after each set-up step and import
REFERENCE_S = 1e-3  # the reported unit: CPU time on a machine where one reference call takes 1 ms
REFERENCE_EVERY_S = 0.01  # wall time between reference samples within a pass
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class _Cell:
    lo: float
    hi: float
    coef: complex

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("empty cell")


def _reference() -> float:
    """Fixed pure-Python work like the library's: frozen records, sorting, grouping, fsum."""
    rng = random.Random(0)
    cells = [_Cell(x, x + 0.1, complex(x, 1.0)) for x in (rng.random() for _ in range(300))]
    groups: dict[float, list[_Cell]] = {}
    for c in sorted(cells, key=lambda c: (c.lo, c.hi)):
        groups.setdefault(round(c.lo, 1), []).append(c)
    return math.fsum(c.hi * math.log1p(abs(c.coef)) for g in groups.values() for c in g)


def _reference_s(clock) -> float:
    """CPU time of one `_reference` call, with the collector off so that
    collecting the workload's garbage is not charged to the reference."""
    gc.disable()
    try:
        start = clock()
        _reference()
        return clock() - start
    finally:
        gc.enable()


class Loop:
    """Passes over a workload's round of ops for `seconds` of wall time.

    At least one pass always runs.  Before pass k, untimed, the workload may
    replace its inputs (`Workload.begin_pass`); the digest covers pass 0 only.

    The speed of a shared machine changes from second to second and drifts
    for minutes, so raw CPU times are not comparable between runs.  Within
    each pass the loop therefore also times a fixed reference that does not
    use the library, after an op whenever REFERENCE_EVERY_S of wall time has
    passed since the last sample.  The pass's reference time is the mean of
    its samples, each weighted by the op time since the sample before, so it
    follows the machine's speed over the same stretch of time as the ops.
    An op's time in a pass is its CPU time divided by the pass's reference
    time, and its reported time (`times`) is the median over passes of that
    ratio, times REFERENCE_S.
    """

    def __init__(self, workload, api, tracer, seconds: float, clock):
        ratios: list[list[float]] = [[] for _ in range(workload.round)]
        self.raw: list[list[float]] = [[] for _ in range(workload.round)]
        references = []
        self.attempted = self.failed = 0
        digest = hashlib.sha256()
        started = time.perf_counter()
        last_pass = 0.0
        passes = 0
        while not passes or time.perf_counter() - started + last_pass / 2 < seconds:
            pass_started = time.perf_counter()
            workload.begin_pass(passes)
            samples = []  # (reference time, op time since the previous sample)
            since = 0.0
            sampled = time.perf_counter()
            for i in range(workload.round):
                if tracer is not None:
                    tracer.begin(workload.op_name(i))
                start = clock()
                result = workload.op(api, i)
                elapsed = clock() - start
                if tracer is not None:
                    tracer.end()
                self.raw[i].append(elapsed)
                since += elapsed
                self.failed += not workload.check(i, result)
                if not passes:
                    digest.update(workload.digest(i, result))
                if time.perf_counter() - sampled >= REFERENCE_EVERY_S or i == workload.round - 1:
                    samples.append((_reference_s(clock), since))
                    since = 0.0
                    sampled = time.perf_counter()
            reference = sum(r * w for r, w in samples) / sum(w for _, w in samples)
            references.append(reference)
            for i in range(workload.round):
                ratios[i].append(self.raw[i][-1] / reference)
            self.attempted += workload.round
            passes += 1
            last_pass = time.perf_counter() - pass_started
        self.digest = digest.hexdigest()
        self.speed = REFERENCE_S / statistics.median(references)
        self.times = [statistics.median(r) * REFERENCE_S for r in ratios]

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.raw) / sum(statistics.median(t) for t in self.raw)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus that of its largest child if `children`, in MiB."""
    whos = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN) if children else (resource.RUSAGE_SELF,)
    return sum(resource.getrusage(who).ru_maxrss for who in whos) / 1024


def _import_s() -> float:
    """CPU seconds that `import logspaces` takes in a fresh child.

    A child per sample, because a module is imported only once per process;
    run after this process's own import, so the bytecode cache is written.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
            "import logspaces; print(time.process_time() - t)")
    return float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                                text=True, timeout=60, check=True).stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "logspaces" / "__init__.py").is_file():
        print(f"error: no logspaces sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import logspaces

    import numpy
    from tracing import Api, Tracer, clock
    from workloads import WORKLOADS, scaling_metrics

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # Set-up is timed like the loop's ops: each step is followed by reference
    # calls, and the steps' medians are divided by the references' mean.
    setups, imports, references = [], [], []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
        start = clock()
        workload = WORKLOADS[args.workload](args.seed)
        workload.warm_up(Api())
        setups.append(clock() - start)
        references += [_reference_s(clock) for _ in range(SETUP_REFERENCES)]
    for _ in range(IMPORTS):
        imports.append(_import_s())
        references += [_reference_s(clock) for _ in range(SETUP_REFERENCES)]
    raw_setup_s = statistics.median(imports) + statistics.median(setups)
    setup_s = raw_setup_s * REFERENCE_S / statistics.fmean(references)

    try:
        if args.trace:
            plain = Loop(workload, Api(), None, args.seconds / 2, clock)
            tracer = Tracer()
            api = Api(tracer)
            loop = Loop(workload, api, tracer, args.seconds / 2, clock)
            values = workload.traced_extras(api, tracer)
            values.update(tracer.layer_metrics(workload.round))
            values.update(scaling_metrics(tracer.spans))
            values["trace.overhead_ratio"] = plain.ops_per_s / loop.ops_per_s
            loops = [plain, loop]
            names = spec["per_layer"]
        else:
            loop = Loop(workload, Api(), None, args.seconds, clock)
            times = loop.times
            values = {
                "ops_per_s": loop.ops_per_s,
                "op_p50_ms": statistics.median(times) * 1e3,
                "op_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
                "setup_s": setup_s,
                "peak_rss_mb": _peak_rss_mb(workload.spawns),
            }
            loops = [loop]
            names = spec["end_to_end"]
    finally:
        workload.close()

    if set(values) != {m["name"] for m in names}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {m['name'] for m in names})}")
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    digest_ok = all(lp.digest == loop.digest for lp in loops)
    if args.seed == digests["seed"]:
        digest_ok &= loop.digest == digests["digests"].get(args.workload)
    stamp = {
        "workload": args.workload, "seed": args.seed, "traced": bool(args.trace),
        "ops": attempted, "failed": failed, "error_rate": failed / attempted,
        "digest": loop.digest, "digest_ok": digest_ok,
        "speed": loop.speed, "raw_ops_per_s": loop.raw_ops_per_s, "raw_setup_s": raw_setup_s,
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "logspaces": logspaces.__version__, "commit": _git_commit(),
    }
    print("env " + json.dumps(stamp))
    if args.trace:
        out = Path(__file__).resolve().parent / "results"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans, stamp)
        print(f"spans written to {spans.relative_to(ROOT)}")
    for m in names:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    correct = failed == 0 and digest_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
