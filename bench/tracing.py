"""Spans around the benchmark's calls into the library's public functions.

The workloads reach the library only through an ``Api``.  Untraced, its
attributes are the library functions themselves, so the timed loop pays
nothing.  Traced, each call becomes a leaf span whose parent is the current
op span; the spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import Counter

import logspaces as L
from logspaces import cli


def clock() -> float:
    """CPU seconds used by this process and its waited-for children.

    Every timing in the benchmark uses this clock rather than wall time: on
    a shared virtual machine the wall clock also counts the time the host
    gives this machine's processors to others, which varies from run to run.
    The benchmark runs one thread and at most one child at a time, so on an
    idle machine the two clocks agree.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _pieces(f) -> int:
    return sum(len(ps) for ps in f.pieces)


def _affine(tmap) -> int:
    return sum(len(e.pieces) for e in tmap.entries)


# attribute -> (span name, function, name suffix, count recorded on the span)
_CALLS = {
    "log_norm": ("stepfunctions.log_norm", L.log_norm,
                 lambda a: type(a[2]).__name__.lower(), lambda a, r: _pieces(a[0])),
    "scale": ("stepfunctions.scale", L.scale, None, None),
    "add": ("stepfunctions.add", L.add, None, None),
    "multiply": ("stepfunctions.multiply", L.multiply, None, None),
    "riemann_oracle": ("stepfunctions.riemann_oracle", L.riemann_oracle, None, None),
    "glue_transports": ("transport.build", L.glue_transports, None, lambda a, r: _affine(r)),
    "transport_between_spaces": ("transport.build", L.transport_between_spaces, None,
                                 lambda a, r: _affine(r)),
    "lift": ("transport.lift", L.lift, None, lambda a, r: _pieces(r)),
    "transport_set": ("transport.transport_set", L.transport_set, None, None),
    "weighting_isometry": ("transport.weighting_isometry", L.weighting_isometry, None, None),
    "measure": ("measure.measure", L.measure, None, lambda a, r: len(a[1].parts)),
    "build_passport": ("passports.build_passport", L.build_passport, None, None),
    "decide_isometric_external": ("passports.decide", L.decide_isometric_external, None, None),
    "load_workspace": ("workspace.load_workspace", L.load_workspace, None, None),
    "cli_main": ("cli.main", cli.main, lambda a: a[0][0], None),
}

# Every function span a traced run reports, whether or not its workload calls it.
FUNCTIONS = (
    "stepfunctions.log_norm.external",
    "stepfunctions.log_norm.internal",
    "stepfunctions.log_norm.generalized",
    "stepfunctions.scale",
    "stepfunctions.add",
    "stepfunctions.multiply",
    "stepfunctions.riemann_oracle",
    "transport.build",
    "transport.lift",
    "transport.transport_set",
    "transport.weighting_isometry",
    "measure.measure",
    "passports.build_passport",
    "passports.decide",
    "workspace.load_workspace",
    "cli.main.norm",
    "cli.main.passport",
    "cli.main.decide",
    "cli.main.transport",
    "cli.main.verify",
)


class Tracer:
    """In-memory spans: (id, name, start, end, parent id, count)."""

    def __init__(self):
        self.spans: list = []
        self.parent: int | None = None
        self.norm_inputs: dict[int, tuple[int, int]] = {}  # span id -> (space, kind) identities

    def begin(self, name: str) -> None:
        self.parent = len(self.spans)
        self.spans.append([self.parent, name, clock(), None, None, None])

    def end(self) -> None:
        self.spans[self.parent][3] = clock()
        self.parent = None

    def leaf(self, name, fn, suffix, count):
        def call(*args):
            start = clock()
            result = fn(*args)
            stop = clock()
            full = name if suffix is None else f"{name}.{suffix(args)}"
            n = None if count is None else count(args, result)
            if name == "stepfunctions.log_norm":
                self.norm_inputs[len(self.spans)] = (id(args[1]), id(args[2]))
            self.spans.append((len(self.spans), full, start, stop, self.parent, n))
            return result

        return call

    def write(self, path, header: dict) -> None:
        """One JSON line for the header, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, name, start, stop, parent, n in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": stop,
                                     "parent": parent, "count": n}) + "\n")

    def layer_metrics(self, round_: int) -> dict[str, float]:
        """calls, busy_s and p50_us per function, op glue time, mean counts and reuse.

        The reuse counters cover the first traced pass, the `round_` first op
        spans: they describe one pass's inputs, not how many passes ran.
        """
        durations: dict[str, list[float]] = {}
        counts: dict[str, list[int]] = {}
        op_total = child_total = 0.0
        for _, name, start, stop, parent, n in self.spans:
            if parent is None:
                if name.startswith("op."):
                    op_total += stop - start
                continue
            durations.setdefault(name, []).append(stop - start)
            if n is not None:
                counts.setdefault(name, []).append(n)
            if self.spans[parent][1].startswith("op."):
                child_total += stop - start
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            d = durations.get(name, [])
            out[f"{name}.calls"] = len(d)
            out[f"{name}.busy_s"] = sum(d)
            out[f"{name}.p50_us"] = statistics.median(d) * 1e6 if d else 0.0
        out["op.self_s"] = op_total - child_total
        norm_counts = [n for k, v in counts.items() if k.startswith("stepfunctions.log_norm.") for n in v]
        for metric, values in (
            ("stepfunctions.log_norm.pieces_in", norm_counts),
            ("measure.measure.parts_in", counts.get("measure.measure", [])),
            ("transport.affine_pieces", counts.get("transport.build", [])),
            ("transport.lift.pieces_out", counts.get("transport.lift", [])),
        ):
            out[metric] = statistics.fmean(values) if values else 0.0
        ops = [sid for sid, name, _, _, parent, _ in self.spans if parent is None and name.startswith("op.")]
        cut = ops[round_] if len(ops) > round_ else len(self.spans)
        first = [key for sid, key in self.norm_inputs.items() if sid < cut]
        out["reuse.calls_per_space_kind"] = len(first) / len(set(first)) if first else 0.0
        first_calls = Counter(name for _, name, _, _, _, _ in self.spans[:cut])
        builds = first_calls["transport.build"]
        uses = first_calls["transport.lift"] + first_calls["transport.transport_set"]
        out["reuse.uses_per_map"] = uses / builds if builds else 0.0
        return out


class Api:
    """The library functions the workloads call; traced calls become leaf spans."""

    def __init__(self, tracer: Tracer | None = None):
        for attr, (name, fn, suffix, count) in _CALLS.items():
            setattr(self, attr, fn if tracer is None else tracer.leaf(name, fn, suffix, count))
