"""One run of an in-process workload, in a fresh interpreter.

run.py starts one of these per run, one at a time.  By hand, from the root
of the repository:

    PYTHONPATH=src python3 perfbench/worker.py box-stream --seed 1 --ops 20 [--trace]

The first stdout line is {"ready": <time.monotonic() after set-up>}; one
JSON line of results follows.  Inputs come only from --seed.  Every output
is checked, between ops and outside their timing; a wrong output, or a check
that cannot be made on it, stops the run with exit code 3.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
from fractions import Fraction

import oracle
import speed

EXIT_WRONG = 3
LATTICE_RADIUS = 4


class WrongOutput(Exception):
    """An output of the program failed its check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise WrongOutput(what)


def checked(check, *args) -> None:
    """Run an output check; any error it raises means a wrong output."""
    try:
        check(*args)
    except WrongOutput:
        raise
    except Exception as exc:
        raise WrongOutput(f"{check.__name__} failed: {exc!r}") from exc


def rss_kb() -> int:
    """Current resident set size of this process, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() // 1024


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-120, 120), rng.randint(1, 60))


def engel_lattice_doc(t: Fraction) -> dict:
    """The integer Engel lattice (generators e1, e2, coordinate Malcev
    basis) dilated by t."""
    def vec(*coords):
        return [str(c) for c in coords]

    return {
        "name": f"integer-engel-dilated-{t}",
        "algebra": "engel",
        "generators": [vec(t, 0, 0, 0), vec(0, t, 0, 0)],
        "malcev_basis": [vec(t, 0, 0, 0), vec(0, t, 0, 0),
                         vec(0, 0, t ** 2, 0), vec(0, 0, 0, t ** 3)],
    }


class Workload:
    """Set-up, one op, and the check of one op's output.

    Subclasses look carnotcert functions up on their modules at call time,
    so the tracer's wrappers see the calls.
    """

    algebra_token = "engel"

    def __init__(self, seed: int):
        self.seed = seed
        self.segments = 0

    def setup(self):
        import carnotcert as cc

        self.cc = cc
        self.algebra = cc.resolve_algebra(self.algebra_token)
        self.metric = cc.build_popp(self.algebra)

    def make_input(self, i: int):
        return None

    def check_path(self, target, path, bound) -> None:
        require(bound == path.length, "bound differs from the path length")
        lower = self.cc.cc_lower_bound(self.metric, target)
        require(lower <= bound, f"lower bound {lower} above bound {bound}")
        self.segments += len(path.segments)

    def finish(self) -> None:
        """Checks that would disturb the counters run after they are read."""

    def counters(self) -> dict:
        return {"path_synth.segments": self.segments}


class BoxStream(Workload):
    """Engel box-verify loop: sample inside the box radii, certify."""

    def setup(self):
        super().setup()
        import numpy as np
        from carnotcert import cli_reports

        self.cli = cli_reports
        self.box = self.cc.global_constants(self.algebra.dims)
        self.rng = np.random.default_rng(self.seed)

    def op(self, _):
        vec = self.cli.sample_in_box(self.algebra, self.metric, self.box.radii, self.rng)
        path, bound = self.cc.certified_dcc_upper(self.algebra, self.metric, vec)
        return vec, path, bound

    def check(self, _, out) -> None:
        vec, path, bound = out
        self.check_path(vec, path, bound)
        require(bound <= 1.0, f"bound {bound} above 1 inside the box")
        endpoint = oracle.engel_product(s.coords() for s in path.segments)
        require(oracle.same_element(endpoint, oracle.engel_element(vec.coords())),
                "endpoint misses the target (matrix oracle)")


class DeepPath(Workload):
    """free_nilpotent(2,4) certified paths to seeded rational targets."""

    algebra_token = "free_nilpotent:2,4"

    def setup(self):
        super().setup()
        self.rng = random.Random(self.seed)

    def make_input(self, i: int):
        return self.algebra.vector(
            [rand_fraction(self.rng) for _ in range(self.algebra.dim)], exact=True)

    def op(self, target):
        return self.cc.certified_dcc_upper(self.algebra, self.metric, target)

    def check(self, target, out) -> None:
        path, bound = out
        self.check_path(target, path, bound)
        require(self.cc.product_fold(self.algebra, path.segments) == target,
                "re-folded endpoint misses the target")


class LatticeSystole(Workload):
    """Systole report on the integer Engel lattice dilated by a seeded t."""

    def setup(self):
        import carnotcert as cc

        self.cc = cc
        lattice = cc.load_lattice(engel_lattice_doc(Fraction(1)))
        self.algebra = lattice.algebra
        self.metric = cc.build_popp(self.algebra)
        self.box = cc.global_constants(self.algebra.dims)
        self.rng = random.Random(self.seed)
        self.elements = 0
        self.certified = 0
        self.minimizers: list = []
        self.dilations: set = set()

    def make_input(self, i: int):
        # Distinct dilations: a repeated t would find its whole report in
        # the caches and make memory growth depend on the draw.
        while True:
            t = Fraction(self.rng.randint(1, 12), self.rng.randint(1, 12))
            if t not in self.dilations:
                self.dilations.add(t)
                return t

    def op(self, t):
        lattice = self.cc.load_lattice(engel_lattice_doc(t))
        return self.cc.check_systolic_inequality(
            lattice, self.metric, self.box, LATTICE_RADIUS)

    def check(self, t, report) -> None:
        rows = report["rows"]
        steps = {"g1": (t, 0, 0, 0), "g2": (0, t, 0, 0),
                 "g1^-1": (-t, 0, 0, 0), "g2^-1": (0, -t, 0, 0)}
        for row in rows:
            coords = [Fraction(c) for c in row["coords"]]
            word = oracle.engel_product(steps[s] for s in row["word"].split("."))
            require(oracle.same_element(word, oracle.engel_element(coords)),
                    f"element {row['word']} has wrong coordinates")
            require(row["lower"] <= row["upper"], f"lower above upper at {row['word']}")
        uppers = [row["upper"] for row in rows if row["upper"] is not None]
        require(report["sys_upper"] == min(uppers), "sys_upper is not the smallest row bound")
        rhs = report["rhs"]
        require(report["ratio"] == report["sys_upper"] / rhs, "ratio disagrees with rhs")
        require(report["satisfied"] == (report["sys_upper"] <= rhs),
                "satisfied disagrees with rhs")
        self.elements += len(rows)
        self.certified += len(uppers)
        self.minimizers.append((report["minimizer_coords"], report["sys_upper"]))

    def finish(self) -> None:
        for coords, sys_upper in self.minimizers:
            target = self.algebra.vector([Fraction(c) for c in coords], exact=True)
            path, bound = self.cc.certified_dcc_upper(self.algebra, self.metric, target)
            self.check_path(target, path, bound)
            require(bound == sys_upper, "minimizer re-certifies to another bound")
            endpoint = oracle.engel_product(s.coords() for s in path.segments)
            require(oracle.same_element(endpoint, oracle.engel_element(target.coords())),
                    "minimizer endpoint misses the target (matrix oracle)")

    def counters(self) -> dict:
        return {"lattice_systole.elements": self.elements,
                "lattice_systole.certified": self.certified}


WORKLOADS = {
    "box-stream": BoxStream,
    "deep-path": DeepPath,
    "lattice-systole": LatticeSystole,
}


def program_counters(metrics: list) -> dict:
    """Exact state counters read from the program's modules, and from the
    given PoppMetrics, after the ops."""
    from carnotcert import bch_engine, scalars

    registry = getattr(scalars, "_registry", [])
    depth: dict = {}
    for rad in registry:
        below = 0
        if isinstance(rad.value, scalars.RadExpr):
            below = max((depth[uid] for mono in rad.value.terms for uid, _ in mono),
                        default=0)
        depth[rad.uid] = below + 1
    return {
        "scalars.radicals": len(registry),
        "scalars.tower_depth_max": max(depth.values(), default=0),
        "adjustment.cache_entries": sum(
            len(getattr(m, "_adjustment_cache", {})) for m in metrics),
        "bch_engine.table_builds": len(getattr(bch_engine, "_beta_cache", {}))
        + len(getattr(bch_engine, "_gamma_cache", {})),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="with --trace, write the spans to this .csv.gz file")
    args = parser.parse_args()

    work = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        import carnotcert  # noqa: F401  (a module is wrapped only once loaded)
        if args.workload == "box-stream":
            import carnotcert.cli_reports  # noqa: F401
        tracer = tracing.Tracer()
        tracer.install()
        with tracer.root(-1, tracing.SETUP_SPAN):
            work.setup()
    else:
        work.setup()
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    rss_setup = rss_kb()

    ops: list[tuple] = []
    probes: list[tuple] = []
    failures: dict = {}
    # The tracer's spans would count the sampler's probes as program time,
    # so a traced run probes only between ops.
    sampler = contextlib.nullcontext() if tracer is not None else speed.Sampler(probes)
    try:
        with sampler:
            for i in range(args.ops):
                inp = work.make_input(i)
                if tracer is not None:
                    speed.probe(probes)
                span = tracer.root(i) if tracer is not None else contextlib.nullcontext()
                t0 = time.perf_counter()
                try:
                    with span:
                        out = work.op(inp)
                except Exception as exc:  # counted by type, never hidden
                    ops.append((t0, time.perf_counter()))
                    failures.setdefault(type(exc).__name__, []).append(i)
                    continue
                ops.append((t0, time.perf_counter()))
                checked(work.check, inp, out)
        speed.probe(probes)
        rss_end = rss_kb()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        counters = program_counters([work.metric])
        if tracer is not None:
            tracer.restore()
            counters.update(tracer.counters())
        checked(work.finish)
        counters.update(work.counters())
    except WrongOutput as exc:
        print(f"wrong output in {args.workload} (seed {args.seed}): {exc}", file=sys.stderr)
        return EXIT_WRONG

    result = {
        "ops_s": ops,
        "probes_s": probes,
        "failures": failures,
        "peak_rss_kb": peak_kb,
        "mem_growth_kb": rss_end - rss_setup,
        "counters": counters,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        if args.spans:
            tracing.write_rows(args.spans, tracer.rows())
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
