"""The four benchmark workloads: seeded inputs, one timed op, its check.

A workload builds its inputs from the seed when it is constructed (that is
set-up).  ``op(api, i)`` for ``i`` in ``range(round)`` is the timed unit of
work; it depends only on ``i`` and the inputs.  ``begin_pass(k)`` runs
untimed before pass k of a loop.  Most workloads keep their inputs, so every
pass repeats the same ops; ``large`` draws fresh inputs for every pass, so
that no input is ever seen twice there.  Pass 0 always uses the seed's own
inputs, and the digest covers pass 0.  ``check`` runs outside the timed
region and calls the library directly, never through the traced api.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import statistics
import struct
import subprocess
import sys
from pathlib import Path

from logspaces import (
    EXTERNAL,
    ClosedForm,
    Component,
    FiniteList,
    Generalized,
    Internal,
    IntervalPiece,
    MeasurableSet,
    MeasureSpace,
    Passport,
    PiecewiseDensity,
    StepFunction,
    Workspace,
    build_passport,
    emit_workspace,
    log_norm,
    transport_between_spaces,
)
from logspaces import cli
from logspaces.sampling import (
    random_kind,
    random_measurable_set,
    random_space,
    random_step_function,
)
from tracing import clock

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"


def _bits(*values: float) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _grid(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n + 1 increasing bounds from lo to hi: a jittered even grid, so exactly n cells."""
    step = (hi - lo) / n
    return [lo] + [lo + step * (k + rng.uniform(-0.4, 0.4)) for k in range(1, n)] + [hi]


def _density(rng: random.Random, lo: float, hi: float, n: int) -> PiecewiseDensity:
    bounds = _grid(rng, lo, hi, n)
    return PiecewiseDensity(
        tuple(IntervalPiece(a, b, rng.uniform(0.25, 4.0)) for a, b in zip(bounds, bounds[1:]))
    )


def _component(rng: random.Random, lo: float, length: float, n: int, mass: float | None = None) -> Component:
    """Bounded weight-0 component with n density pieces; total measure `mass` if given."""
    dens = _density(rng, lo, lo + length, n)
    if mass is not None:
        s = mass / math.fsum(p.length * p.value for p in dens.pieces)
        dens = PiecewiseDensity(tuple(IntervalPiece(p.start, p.stop, p.value * s) for p in dens.pieces))
    return Component(dens)


def _step_function(rng: random.Random, space: MeasureSpace, n: int) -> StepFunction:
    """n nonzero complex pieces tiling each component carrier."""
    specs = []
    for i, comp in enumerate(space.components):
        bounds = _grid(rng, *comp.carrier, n)
        for a, b in zip(bounds, bounds[1:]):
            mod, phase = rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0 * math.pi)
            specs.append((i, a, b, complex(mod * math.cos(phase), mod * math.sin(phase))))
    return StepFunction.from_pieces(space, specs)


def _value_at(f: StepFunction, x: float) -> complex:
    for p in f.pieces[0]:
        if p.start <= x < p.stop:
            return p.coef
    return 0j


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


class Workload:
    round = 1  # distinct ops in one pass; a run repeats whole passes
    warm_ops = 1  # leading ops run once at set-up
    spawns = False  # whether ops start child processes

    def warm_up(self, api) -> None:
        for i in range(self.warm_ops):
            self.op(api, i)

    def begin_pass(self, k: int) -> None:
        pass

    def op_name(self, i: int) -> str:
        return "op." + type(self).__name__.lower()

    def op(self, api, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> bool:
        raise NotImplementedError

    def digest(self, i: int, result) -> bytes:
        raise NotImplementedError

    def traced_extras(self, api, tracer) -> dict[str, float]:
        """Per-layer numbers taken after the traced loop; zero where they do not apply."""
        return {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0}

    def close(self) -> None:
        pass


class Corpus(Workload):
    """The acceptance-suite case mix: criteria 1 and 2 on random small cases.

    One op runs CASES_PER_OP consecutive cases.  Single cases differ in cost
    by a factor of ten, so the 90th percentile of single cases moved with
    the seed's mix far more than the machine lets a bound tolerate; batches
    of four narrow that spread.  The cases are traversed repeatedly, like
    the acceptance corpus, which runs criteria 1 and 2 over the same 10,000
    cases.
    """

    round = 256
    CASES_PER_OP = 4
    ORACLE_EVERY = 64  # cases; one op in 16 includes an oracle case
    ORACLE_SUBDIVISIONS = 10**4
    warm_ops = 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.cases = []
        for _ in range(self.round * self.CASES_PER_OP):
            space = random_space(rng)
            f = random_step_function(rng, space, max_pieces=4)
            g = random_step_function(rng, space, max_pieces=4)
            kind = random_kind(rng, space)
            self.cases.append((space, f, g, kind, rng.uniform(-1.0, 1.0)))

    def _cases(self, i: int) -> range:
        return range(i * self.CASES_PER_OP, (i + 1) * self.CASES_PER_OP)

    def op(self, api, i: int):
        return [self._case(api, k) for k in self._cases(i)]

    def _case(self, api, k: int):
        space, f, g, kind, alpha = self.cases[k]
        norms = [api.log_norm(f, space, kind), api.log_norm(api.scale(f, alpha), space, kind)]
        norms += [api.log_norm(api.scale(f, 2.0**-j), space, kind) for j in range(41)]
        norms.append(api.log_norm(g, space, kind))
        norms.append(api.log_norm(api.add(f, g), space, kind))
        norms.append(api.log_norm(api.multiply(f, g), space, kind))
        oracle = None
        if k % self.ORACLE_EVERY == 0:
            oracle = api.riemann_oracle(f, space, kind, self.ORACLE_SUBDIVISIONS)
        return [n.value for n in norms], oracle

    def check(self, i: int, result) -> bool:
        return all(self._check_case(k, r) for k, r in zip(self._cases(i), result))

    def _check_case(self, k: int, result) -> bool:
        _, f, _, kind, _ = self.cases[k]
        v, oracle = result
        nf, ng, n_sum, n_prod = v[0], v[43], v[44], v[45]
        ok = all(math.isfinite(x) for x in v)  # supports are bounded
        ok &= nf == 0.0 if f.is_zero else nf > 0.0
        ok &= v[1] <= nf + 1e-12
        ok &= all(b <= a + 1e-12 for a, b in zip(v[2:43], v[3:43])) and v[42] < 1e-6
        ok &= n_sum <= nf + ng + 1e-9
        if kind == EXTERNAL:  # the product bound is the plain-norm statement
            ok &= n_prod <= nf + ng + 1e-9
        if oracle is not None:
            ok &= abs(oracle - nf) <= 1e-6
        return ok

    def digest(self, i: int, result) -> bytes:
        # oracle sums depend on numpy's summation, not on the norms
        return b"".join(_bits(*norms) for norms, _ in result)


class _Pair:
    """An equal-passport space pair with the inputs for its map's uses."""

    def __init__(self, rng: random.Random, pieces: tuple[int, int, int, int], glue: bool):
        src = MeasureSpace((
            _component(rng, -4.0, rng.uniform(0.5, 3.0), pieces[0]),
            _component(rng, 1.0, rng.uniform(0.5, 3.0), pieces[1]),
        ))
        masses = [c.measure().value for c in src.components]
        if not glue:  # same total, split differently over the two components
            w = rng.uniform(0.2, 0.8)
            masses = [math.fsum(masses) * w, math.fsum(masses) * (1.0 - w)]
        dst = MeasureSpace((
            _component(rng, -2.0, rng.uniform(0.5, 3.0), pieces[2], masses[0]),
            _component(rng, 3.0, rng.uniform(0.5, 3.0), pieces[3], masses[1]),
        ))
        self.src, self.dst, self.glue = src, dst, glue
        self.build_args = (list(zip(src.components, dst.components)),) if glue else (src, dst)
        self.h = tuple(_density(rng, *c.carrier, len(c.density.pieces)) for c in src.components)
        self.internal = Internal(self.h)
        # use u is a lift, a set transport or a weighting as u % 3 is 0, 1 or 2
        self.inputs = [
            random_measurable_set(rng, src, max_intervals=8) if u % 3 == 1
            else random_step_function(rng, src, max_pieces=16)
            for u in range(Transport.USES)
        ]


class Transport(Workload):
    """Equal-passport pairs whose maps are each used USES times.

    Piece counts follow a fixed cycle rather than a random draw, so runs on
    different seeds do the same amount of work.
    """

    PIECES = (8, 64, 16, 48, 24, 32, 12, 40)
    PAIRS = 4
    USES = 128
    USE_KINDS = ("lift", "set", "weighting")
    round = PAIRS * USES
    warm_ops = len(USE_KINDS)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cycle = self.PIECES
        self.pairs = [
            _Pair(rng, tuple(cycle[(2 * p + k) % len(cycle)] for k in range(4)), glue=p % 2 == 0)
            for p in range(self.PAIRS)
        ]
        self.tmap = None

    def op_name(self, i: int) -> str:
        return "op." + self.USE_KINDS[i % self.USES % 3]

    def op(self, api, i: int):
        pair = self.pairs[i // self.USES]
        use = i % self.USES
        verdict = None
        if use == 0:  # the map is built once per USES uses, inside its first use
            verdict = api.decide_isometric_external(
                api.build_passport(pair.src), api.build_passport(pair.dst)
            ).verdict
            build = api.glue_transports if pair.glue else api.transport_between_spaces
            self.tmap = build(*pair.build_args)
        kind, x = use % 3, pair.inputs[use]
        if kind == 0:
            a = api.log_norm(x, pair.src, EXTERNAL)
            b = api.log_norm(api.lift(self.tmap, x), pair.dst, EXTERNAL)
        elif kind == 1:
            a = api.measure(pair.src, x)
            b = api.measure(pair.dst, api.transport_set(self.tmap, x))
        else:
            a = api.log_norm(x, pair.src, EXTERNAL)
            b = api.log_norm(api.weighting_isometry(x, pair.h), pair.src, pair.internal)
        return verdict, kind, a.value, b.value

    def check(self, i: int, result) -> bool:
        verdict, kind, a, b = result
        if verdict is False:
            return False
        if kind == 1:
            return abs(a - b) / (1.0 + a) <= 1e-9
        return abs(a - b) <= 1e-9

    def digest(self, i: int, result) -> bytes:
        return _bits(*result[2:])


SIZES = (250, 500, 1000)
LARGE_OPS = ("norm_external", "norm_generalized", "add", "multiply", "build", "lift", "transport_set")


class _Sized:
    """One-component inputs with n pieces each, plus an equal-mass partner space."""

    def __init__(self, rng: random.Random, n: int):
        length = n / 100.0
        self.space = MeasureSpace((_component(rng, 0.0, length, n),))
        mass = self.space.components[0].measure().value
        self.partner = MeasureSpace((_component(rng, -1.0, length * rng.uniform(0.5, 2.0), n, mass),))
        self.f = _step_function(rng, self.space, n)
        self.g = _step_function(rng, self.space, n)
        self.kind = Generalized((_density(rng, 0.0, length, n),), (_density(rng, 0.0, length, n),))
        bounds = _grid(rng, 0.0, length, 200)
        self.set = MeasurableSet(tuple((0, a, b) for a, b in zip(bounds[0::2], bounds[1::2])))
        self.tmap = transport_between_spaces(self.space, self.partner)
        self.norm_f: float | None = None


class Large(Workload):
    """Single calls on 250, 500 and 1000 pieces, where the O(P*D) refinement dominates.

    Every pass draws fresh inputs, and warm-up runs on inputs of its own, so
    no call here ever repeats an earlier input: a cache of results across
    calls is paid for here and never hit.
    """

    OPS = tuple((kind, n) for n in SIZES for kind in LARGE_OPS)
    round = len(OPS)
    warm_ops = len(LARGE_OPS)  # each kind once, at the smallest size

    def __init__(self, seed: int):
        self.seed = seed
        self.pass_no = 0
        self.inputs = self._inputs(random.Random(seed), SIZES)

    @staticmethod
    def _inputs(rng: random.Random, sizes) -> dict[int, _Sized]:
        return {n: _Sized(rng, n) for n in sizes}

    def warm_up(self, api) -> None:
        inputs = self.inputs
        self.inputs = self._inputs(random.Random(f"{self.seed}.warm"), SIZES[:1])
        super().warm_up(api)
        self.inputs = inputs

    def begin_pass(self, k: int) -> None:
        if k != self.pass_no:
            self.pass_no = k
            self.inputs = self._inputs(random.Random(self.seed if k == 0 else f"{self.seed}.{k}"), SIZES)

    def op_name(self, i: int) -> str:
        kind, n = self.OPS[i]
        return f"op.{kind}.n{n}"

    def op(self, api, i: int):
        kind, n = self.OPS[i]
        x = self.inputs[n]
        if kind == "norm_external":
            return api.log_norm(x.f, x.space, EXTERNAL)
        if kind == "norm_generalized":
            return api.log_norm(x.f, x.space, x.kind)
        if kind == "add":
            return api.add(x.f, x.g)
        if kind == "multiply":
            return api.multiply(x.f, x.g)
        if kind == "build":
            return api.transport_between_spaces(x.space, x.partner)
        if kind == "lift":
            return api.lift(api.transport_between_spaces(x.space, x.partner), x.f)
        image = api.transport_set(x.tmap, x.set)
        return api.measure(x.space, x.set), api.measure(x.partner, image)

    def check(self, i: int, result) -> bool:
        kind, n = self.OPS[i]
        x = self.inputs[n]
        if kind == "norm_external":  # runs first at each size; later checks reuse it
            x.norm_f = result.value
        if kind.startswith("norm_"):
            return result.is_finite and result.value > 0.0
        if kind == "add":
            bound = self._norm_f(x) + log_norm(x.g, x.space).value + 1e-9
            return log_norm(result, x.space).value <= bound
        if kind == "multiply":
            cells = [(p.start + p.stop) / 2 for p in result.pieces[0]]
            return all(_value_at(result, t) == _value_at(x.f, t) * _value_at(x.g, t) for t in cells[::10])
        if kind == "build":
            return result == x.tmap
        if kind == "lift":
            return _rel_close(log_norm(result, x.partner).value, self._norm_f(x), 1e-9)
        return _rel_close(result[0].value, result[1].value, 1e-9)

    @staticmethod
    def _norm_f(x: _Sized) -> float:
        if x.norm_f is None:
            x.norm_f = log_norm(x.f, x.space).value
        return x.norm_f

    def digest(self, i: int, result) -> bytes:
        if isinstance(result, tuple):
            return _bits(result[0].value, result[1].value)
        if hasattr(result, "value"):
            return _bits(result.value)
        return repr(result).encode()


def scaling_metrics(spans) -> dict[str, float]:
    """Per-size median milliseconds and log-log slopes, from spans under sized ops."""
    durations: dict[tuple[str, int], list[float]] = {}
    for _, name, start, stop, parent, _ in spans:
        if parent is None:
            continue
        op = spans[parent][1]
        if ".n" in op and name in SCALED:
            durations.setdefault((name, int(op.rsplit(".n", 1)[1])), []).append(stop - start)
    out: dict[str, float] = {}
    for name in SCALED:
        ms = [statistics.median(durations[(name, n)]) * 1e3 if (name, n) in durations else 0.0
              for n in SIZES]
        out.update({f"{name}.n{n}_ms": v for n, v in zip(SIZES, ms)})
        if name in SLOPES:
            slope = 0.0
            if all(ms):
                slope = statistics.linear_regression([math.log(n) for n in SIZES],
                                                     [math.log(v) for v in ms]).slope
            out[SLOPES[name]] = slope
    return out


SCALED = ("stepfunctions.log_norm.generalized", "transport.lift", "measure.measure",
          "stepfunctions.log_norm.external")
SLOPES = {
    "stepfunctions.log_norm.generalized": "stepfunctions.log_norm.scaling_exp",
    "transport.lift": "transport.lift.scaling_exp",
    "measure.measure": "measure.measure.scaling_exp",
}


class Cli(Workload):
    """Fresh `python -m logspaces` processes on a generated workspace, one at a time."""

    OPS = (
        ("norm", "--fn", "f", "--kind", "external"),
        ("norm", "--fn", "f", "--kind", "internal", "--h", "h"),
        ("norm", "--fn", "g", "--kind", "generalized", "--h1", "h1", "--h2", "h2"),
        ("passport",),
        ("decide", "--relation", "isometric"),
        ("decide", "--relation", "star-iso", "--left", "cfa", "--right", "cfb"),
        ("decide", "--relation", "iso-pair", "--left", "inf1", "--right", "inf2"),
        ("decide", "--relation", "gen-isometric", "--left", "fin"),
        ("transport",),
        ("verify", "--target", "transport", "--samples", "20"),
        ("verify", "--target", "weighting", "--samples", "20"),
    )
    round = len(OPS)
    warm_ops = 0  # computing the expected outputs in-process has imported and run everything
    spawns = True
    STARTUP_RUNS = 5

    def __init__(self, seed: int):
        rng = random.Random(seed)
        space = MeasureSpace(tuple(
            _component(rng, lo, rng.uniform(0.5, 3.0), rng.randint(16, 64)) for lo in (-4.0, 1.0)
        ))
        total = math.fsum(c.measure().value for c in space.components)
        w = rng.uniform(0.2, 0.8)
        space2 = MeasureSpace(tuple(
            _component(rng, lo, rng.uniform(0.5, 3.0), rng.randint(16, 64), total * share)
            for lo, share in ((-2.0, w), (3.0, 1.0 - w))
        ))
        geom = ClosedForm("GEOM", (rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.9)))
        infinite = Passport((0, rng.randint(1, 5)), (), FiniteList(()))
        ws = Workspace(
            space=space,
            space2=space2,
            functions={"f": _step_function(rng, space, 32), "g": _step_function(rng, space, 32)},
            densities={
                name: tuple(_density(rng, *c.carrier, rng.randint(16, 64)) for c in space.components)
                for name in ("h", "h1", "h2")
            },
            passports={
                "fin": build_passport(space),
                "cfa": Passport((), None, geom),
                "cfb": Passport((), None, geom),
                "inf1": infinite,
                "inf2": infinite,
            },
        )
        RESULTS.mkdir(exist_ok=True)
        self.path = RESULTS / f"cli-workspace-{os.getpid()}.json"
        self.path.write_text(emit_workspace(ws), encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.expected = [self._in_process(cli.main, argv) for argv in self.OPS]

    def _argv(self, argv: tuple[str, ...]) -> list[str]:
        return [argv[0], "--file", str(self.path), *argv[1:]]

    def _in_process(self, main, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(self._argv(argv))
        return code, out.getvalue()

    def op_name(self, i: int) -> str:
        return "op." + self.OPS[i][0]

    def op(self, api, i: int):
        proc = subprocess.run(
            [sys.executable, "-m", "logspaces", *self._argv(self.OPS[i])],
            env=self.env, capture_output=True, text=True, timeout=60, check=False,
        )
        return proc.returncode, proc.stdout

    def check(self, i: int, result) -> bool:
        return result == self.expected[i] and result[0] == 0

    def digest(self, i: int, result) -> bytes:
        code, stdout = result
        return f"{self.OPS[i]}\n{code}\n{stdout}".encode()

    def _startup_ms(self, code: str) -> float:
        times = []
        for _ in range(self.STARTUP_RUNS):
            start = clock()
            subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True,
                           timeout=60, check=True)
            times.append(clock() - start)
        return statistics.median(times) * 1e3

    def traced_extras(self, api, tracer) -> dict[str, float]:
        """In-process parse and subcommand spans, and the interpreter and import floor."""
        tracer.begin("cli.in_process")
        for argv in self.OPS:
            api.load_workspace(self.path)
            self._in_process(api.cli_main, argv)
        tracer.end()
        interpreter = self._startup_ms("pass")
        return {"cli.interpreter_ms": interpreter,
                "cli.import_ms": self._startup_ms("import logspaces") - interpreter}

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


WORKLOADS = {"corpus": Corpus, "transport": Transport, "large": Large, "cli": Cli}
