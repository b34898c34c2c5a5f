"""Span tracer that times calls into carnotcert's modules from outside.

For the traced part of a run, timing wrappers are swapped onto module and
class attributes of the already imported ``carnotcert`` modules, and the
originals are put back afterwards; nothing under ``src/`` is edited.  Each
span records its name, start, end, parent span and op id.  Spans are kept in
arrays in memory and written out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from array import array
from contextlib import contextmanager

PACKAGE = "carnotcert"

# (defining module, attribute, span name).  A module-level function is
# patched under every carnotcert module that holds it: path_synth, adjustment
# and lattice_systole bind product_fold / bch_product with
# ``from .bch_engine import ...``, so patching bch_engine alone would miss
# their calls.  Modules that are not imported are skipped, never imported,
# and so are attributes the program no longer has.
WRAPPED = [
    ("scalars", "RadExpr.__mul__", "scalars.mul"),
    ("scalars", "RadExpr.__rmul__", "scalars.mul"),
    ("scalars", "sign_of", "scalars.sign_of"),
    ("scalars", "signed_root", "scalars.signed_root"),
    ("words", "FreeSeries.__mul__", "words.series_mul"),
    ("ratlinalg", "identity", "ratlinalg"),
    ("ratlinalg", "transpose", "ratlinalg"),
    ("ratlinalg", "mat_mul", "ratlinalg"),
    ("ratlinalg", "mat_vec", "ratlinalg"),
    ("ratlinalg", "mat_rank", "ratlinalg"),
    ("ratlinalg", "mat_det", "ratlinalg"),
    ("ratlinalg", "mat_inv", "ratlinalg"),
    ("ratlinalg", "cholesky_lower", "ratlinalg"),
    ("graded_algebra", "GradedAlgebra.bracket", "graded_algebra.bracket"),
    ("graded_algebra", "resolve_algebra", "graded_algebra.resolve"),
    ("bch_engine", "bch_product", "bch_engine.bch_product"),
    ("bch_engine", "product_fold", "bch_engine.product_fold"),
    ("bch_engine", "beta_table", "bch_engine.table"),
    ("bch_engine", "gamma_table", "bch_engine.table"),
    ("popp_metric", "build_popp", "popp_metric.build"),
    ("popp_metric", "PoppMetric.layer_quadform", "popp_metric.quadform"),
    ("popp_metric", "PoppMetric.layer_norm", "popp_metric.norm"),
    ("popp_metric", "PoppMetric.minimal_preimage", "popp_metric.minimal_preimage"),
    ("adjustment", "adjust_tuple", "adjustment.adjust_tuple"),
    ("adjustment", "adjust_to_layer_vector", "adjustment.adjust_layer"),
    ("adjustment", "HorizontalSet.commutator_product", "adjustment.commutator_product"),
    ("adjustment", "HorizontalSet.verify_conditions", "adjustment.verify"),
    ("adjustment", "AdjustedTuple.verify_reconstruction", "adjustment.verify"),
    ("adjustment", "_check_prefix", "adjustment.verify"),
    ("certificates", "global_constants", "certificates.global_constants"),
    ("path_synth", "certified_dcc_upper", "path_synth.certify"),
    ("path_synth", "_verify_path", "path_synth.verify"),
    ("lattice_systole", "load_lattice", "lattice_systole.load"),
    ("lattice_systole", "enumerate_ball", "lattice_systole.enumerate"),
    ("cli_reports", "sample_in_box", "cli_reports.sample"),
    ("cli_reports", "_emit", "cli_reports.report"),
]

# Bindings whose calls get a span name of their own: product_fold as called
# from path_synth is the endpoint fold of a HorizontalPath.
RENAMED = {("path_synth", "product_fold"): "path_synth.fold"}

OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"

# Spans whose results the tracer reads: the group elements the fold and the
# group law return (for the most terms per coordinate), and the metrics
# build_popp returns (for the size of their adjustment caches).
FOLD_SPANS = {"bch_engine.bch_product", "bch_engine.product_fold", "path_synth.fold"}
BUILD_SPAN = "popp_metric.build"


def terms(scalar) -> int:
    """Monomials of an exact scalar; a rational counts one."""
    return len(scalar.terms) if hasattr(scalar, "terms") else 1


class Tracer:
    """Records nested spans; ``active`` gates recording, so output checks run
    through the wrappers untraced."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._saved: list[tuple] = []
        self.op_id = -1
        self.active = False
        self.terms_max = 0
        self.metrics: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        depth = self._depth[nid]
        self._depth[nid] = depth + 1
        self.outer.append(depth == 0)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    @contextmanager
    def root(self, op_id: int, name: str = OP_SPAN):
        """A top-level span around one op (or set-up) of the benchmark."""
        self.op_id = op_id
        self.active = True
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)
            self.active = False

    def _wrapper(self, fn, name: str):
        nid = self._id(name)
        tracer = self
        observed = name in FOLD_SPANS or name == BUILD_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
                if observed:
                    tracer._observe(name, out)
                return out
            finally:
                tracer._close(idx)

        return traced

    def _observe(self, name: str, out) -> None:
        if name == BUILD_SPAN:
            if all(m is not out for m in self.metrics):
                self.metrics.append(out)
        else:
            self.terms_max = max(self.terms_max, max(map(terms, out.coords()), default=0))

    def counters(self) -> dict:
        """Exact counters read from the results of traced calls."""
        return {"scalars.terms_per_coord_max": self.terms_max}

    def install(self) -> None:
        """Swap wrappers onto every imported binding listed in WRAPPED."""
        loaded = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith(PACKAGE + ".")
        }
        holders = list(loaded.items()) + [("", sys.modules[PACKAGE])]
        for module, attr, name in WRAPPED:
            defining = loaded.get(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(defining, cls_name, None)
                if meth in getattr(cls, "__dict__", {}):
                    self._set(cls, meth, self._wrapper(cls.__dict__[meth], name))
                continue
            original = getattr(defining, attr, None)
            if original is None:
                continue
            for short, mod in holders:
                if vars(mod).get(attr) is original:
                    label = RENAMED.get((short, attr), name)
                    self._set(mod, attr, self._wrapper(original, label))

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original attribute back, in reverse order."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def rows(self) -> list[tuple]:
        """Spans as (name, start, end, parent, op) tuples."""
        return [
            (self.names[n], s, e, p, o)
            for n, s, e, p, o in zip(
                self.name, self.start, self.end, self.parent, self.op
            )
        ]

    def summary(self) -> dict:
        return summarize(self.names, self.name, self.start, self.end,
                         self.parent, self.outer)


def summarize(names, name, start, end, parent, outer) -> dict:
    """Per span name: calls, calls with no child span, self time and
    inclusive time.

    Self time is a span's duration minus the time its child spans cover;
    inclusive time counts only spans with no enclosing span of the same
    name, so recursion is not counted twice.
    """
    n = len(start)
    covered = [0.0] * n
    has_child = [False] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
            has_child[p] = True
    out: dict = {}
    for i in range(n):
        entry = out.get(names[name[i]])
        if entry is None:
            entry = out[names[name[i]]] = {
                "calls": 0, "childless": 0, "self_s": 0.0, "total_s": 0.0}
        duration = end[i] - start[i]
        entry["calls"] += 1
        entry["childless"] += not has_child[i]
        entry["self_s"] += duration - covered[i]
        if outer[i]:
            entry["total_s"] += duration
    return out


def merge(into: dict, summary: dict) -> dict:
    """Add one summary's calls and times into another."""
    for name, entry in summary.items():
        acc = into.setdefault(name, dict.fromkeys(entry, 0))
        for key, value in entry.items():
            acc[key] += value
    return into


def write_rows(path, rows) -> None:
    """Write spans as gzipped CSV, times in seconds from the first start."""
    t0 = min((r[1] for r in rows), default=0.0)
    with gzip.open(path, "wt", newline="", encoding="utf-8", compresslevel=1) as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "name", "start_s", "end_s", "parent", "op"])
        for i, (name, s, e, p, o) in enumerate(rows):
            writer.writerow([i, name, f"{s - t0:.9f}", f"{e - t0:.9f}", p, o])
