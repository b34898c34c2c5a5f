"""Command-line entry point with deterministic machine-readable reports.

Every command emits one JSON report {command, inputs_digest, seed, version,
payload}; identical inputs and seed give byte-identical output (timing is
logged to stderr, never into the report).  Exit codes: 0 success, 1 I/O,
2 validation failure, 3 resource cap, 4 certificate failure (an internal
exactness check that can only fail on an implementation bug) or any other
unexpected exception, reported as one ``error:`` line without a traceback.
The algebra is the global ``--algebra`` flag only.  The work cap
``CARNOT_CERT_CAP`` is not handled here: the library reads it where it is
enforced (:func:`carnotcert.graded_algebra.resource_cap`).
"""

from __future__ import annotations

import csv as csv_module
import hashlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

import click

from . import __version__
from .adjustment import (
    adjust_to_layer_vector,
    adjust_tuple,
    cc_lower_bound,
    certified_dcc_upper,
)
from .bch_engine import beta_table, gamma_table
from .certificates import global_constants
from .errors import CarnotError, CertificateFailure, ParseError
from .graded_algebra import (
    GradedAlgebra,
    GVec,
    is_builtin_token,
    is_inline_document,
    resolve_algebra,
)
from .lattice_systole import check_systolic_inequality, load_lattice
from .popp_metric import PoppMetric, build_popp
from .scalars import RadExpr, as_float

if TYPE_CHECKING:
    import numpy as np

EXIT_IO = 1
EXIT_UNEXPECTED = 4


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _document_digest(ref: str) -> str:
    """Digest of a document argument: the bytes of the file it names, never
    its path, so one document at two paths gives one report; inline JSON
    (or a name with no file behind it) is hashed as given."""
    if not is_inline_document(ref) and os.path.isfile(ref):
        with open(ref, "rb") as fh:
            return _digest(fh.read())
    return _digest(ref.encode("utf-8"))


def _algebra_digest(token: str) -> str:
    """A builtin token is hashed as text, as it is what loads even where a
    file of that name exists; anything else is a document."""
    if is_builtin_token(token):
        return _digest(token.encode("utf-8"))
    return _document_digest(token)


def _scalar_json(x):
    """Rational scalars as exact strings, irrational ones as floats."""
    if isinstance(x, RadExpr):
        if x.is_rational:
            return str(x.rational_value())
        return as_float(x)
    if isinstance(x, Fraction):
        return str(x)
    return str(Fraction(x))


def _vector_json(v: GVec) -> dict:
    return {
        "coords": [_scalar_json(c) for c in v.coords()],
        "coords_float": [as_float(c) for c in v.coords()],
    }


def _emit(ctx, command: str, payload: dict, digest: str):
    report = {
        "command": command,
        "inputs_digest": digest,
        "seed": ctx.obj.get("seed", 0),
        "version": __version__,
        "payload": payload,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    click.echo(text)
    out = ctx.obj.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elapsed = time.perf_counter() - ctx.obj["started"]
    click.echo(f"elapsed: {elapsed:.3f}s", err=True)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_module.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format(x, ".17g") if isinstance(x, float) else x for x in row]
            )


def _algebra_from(ctx) -> tuple[GradedAlgebra, str]:
    """The algebra of the global ``--algebra`` and its inputs digest."""
    token = ctx.obj.get("algebra")
    if not token:
        raise click.UsageError("no algebra given (use --algebra)")
    return resolve_algebra(token), _algebra_digest(token)


def _parse_coords(text: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coordinate list {text!r}") from exc


class _GuardedGroup(click.Group):
    """Command group whose failures end in one stderr line.

    A CarnotError or OSError is reported as ``error: <message>`` with its
    exit code: the CarnotError's own ``exit_code`` (3 for a resource cap, 4
    for a certificate failure, 2 for any other validation failure), 1 for
    I/O.  Any other exception is a bug, reported as
    ``error: <Type>: <message>`` with exit code 4 instead of a traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (
            click.exceptions.ClickException,
            click.exceptions.Exit,
            click.exceptions.Abort,
        ):
            raise
        except (CarnotError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code if isinstance(exc, CarnotError) else EXIT_IO)
        except Exception as exc:
            message = " ".join(str(exc).split())
            click.echo(f"error: {type(exc).__name__}: {message}", err=True)
            sys.exit(EXIT_UNEXPECTED)


@click.group(cls=_GuardedGroup)
@click.option("--algebra", default=None, help="builtin token (heisenberg[:n], engel, free_nilpotent:d1,k) or spec file path")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="also write the report to this file")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None, help="write auxiliary CSV rows here")
@click.pass_context
def main(ctx, algebra, seed, out, csv_path):
    """Certified Carnot-group computations with machine-readable reports."""
    ctx.ensure_object(dict)
    ctx.obj.update(
        algebra=algebra,
        seed=seed,
        out=out,
        csv=csv_path,
        started=time.perf_counter(),
    )


@main.group()
def algebra():
    """Structure-constant document operations."""


@algebra.command("check")
@click.argument("spec", required=False)
@click.pass_context
def algebra_check(ctx, spec):
    """Validate an algebra document or builtin token."""
    token = spec or ctx.obj.get("algebra")
    if not token:
        raise click.UsageError("give a spec path or builtin token")
    digest = _algebra_digest(token)
    try:
        alg = resolve_algebra(token)
    except CarnotError as exc:
        payload = {
            "ok": False,
            "failure": type(exc).__name__,
            "detail": str(exc),
        }
        _emit(ctx, "algebra check", payload, digest)
        sys.exit(exc.exit_code)
    payload = {
        "ok": True,
        "name": alg.name,
        "dims": list(alg.dims),
        "step": alg.step,
        "hausdorff_dimension": sum(
            i * d for i, d in enumerate(alg.dims, start=1)
        ),
    }
    _emit(ctx, "algebra check", payload, digest)


@main.group()
def popp():
    """Induced layer metric queries."""


@popp.command("gram")
@click.pass_context
def popp_gram(ctx):
    """Dump bracket matrices, Gram matrices and the orthonormal frame."""
    alg, digest = _algebra_from(ctx)
    metric = build_popp(alg)
    frames = metric.orthonormal_frame()
    layers = {}
    for layer in range(1, alg.step + 1):
        entry = {
            "gram": [[str(x) for x in row] for row in metric.grams[layer]],
            "gram_det": str(metric.gram_dets[layer]),
            "frame": frames[layer],
        }
        if layer >= 2:
            entry["bracket_matrix"] = [
                [str(x) for x in row]
                for row in metric.bracket_matrices[layer]
            ]
        layers[str(layer)] = entry
    payload = {
        "algebra": alg.name,
        "dims": list(alg.dims),
        "frame_density": metric.frame_density(),
        "layers": layers,
    }
    _emit(ctx, "popp gram", payload, digest)


@main.command("constants")
@click.pass_context
def constants_cmd(ctx):
    """Box radii and the derived volume / systolic constants."""
    alg, digest = _algebra_from(ctx)
    box = global_constants(alg.dims)
    payload = {
        "algebra": alg.name,
        "dims": list(box.dims),
        "radii": [str(r) for r in box.radii],
        "radii_float": [float(r) for r in box.radii],
        "hausdorff_dimension": box.hausdorff_dim,
        "ball_volume_lower_bound": box.ball_volume_lower,
        "ball_volume_exact": {
            "rational": str(box.ball_volume_frac),
            "pi_exponent": box.ball_volume_pi_exp,
        },
        "systolic_constant": box.systolic_constant,
        "trace": [
            {
                "level": e["level"],
                "T": str(e["T"]),
                "T_float": float(e["T"]),
                "eps_hat": str(e["eps_hat"]),
                "eps_hat_float": float(e["eps_hat"]),
                "eps_tilde": [str(x) for x in e["eps_tilde"]],
                "q_value": e["q_value"],
                "cap": e["cap"],
                "residual": e["residual"],
            }
            for e in box.trace
        ],
    }
    _emit(ctx, "constants", payload, digest)


@main.command("adjust")
@click.option("--target", required=True, help="comma-separated rational coordinates")
@click.option("--layer", type=int, default=None, help="adjust a single layer vector instead of a full vector")
@click.pass_context
def adjust_cmd(ctx, target, layer):
    """Balanced horizontal decomposition with verified conditions."""
    alg, digest = _algebra_from(ctx)
    metric = build_popp(alg)
    coords = _parse_coords(target)
    if layer is not None:
        hs = adjust_to_layer_vector(alg, metric, coords, layer)
        payload = {
            "algebra": alg.name,
            "kind": "layer_set",
            "layer": layer,
            "conditions": hs.verify_conditions(),
            "combinatorial_length": hs.combinatorial_length(),
            "rows": [
                {
                    "word": [i + 1 for i in r.word]
                    if r.word is not None
                    else None,
                    "alpha": _scalar_json(r.alpha)
                    if r.alpha is not None
                    else None,
                    "sign": r.sign,
                    "scale": as_float(r.scale),
                    "vectors": [_vector_json(v) for v in hs.row_vectors(r)],
                }
                for r in hs.rows
            ],
            "layer_errors": {
                str(l): [_scalar_json(c) for c in coords_l]
                for l, coords_l in hs.layer_error_vectors().items()
            },
        }
    else:
        vec = alg.vector(coords)
        tup = adjust_tuple(alg, metric, vec)
        payload = {
            "algebra": alg.name,
            "kind": "tuple",
            "target": _vector_json(vec),
            "stage_conditions": [
                s.verify_conditions() for s in tup.sets
            ],
            "stage_lengths": tup.stage_lengths(),
            "total_combinatorial_length": tup.total_combinatorial_length(),
            "prefix_errors": {
                f"{l},{j}": [_scalar_json(c) for c in coords_l]
                for (l, j), coords_l in sorted(tup.prefix_errors.items())
            },
            "reconstruction_exact": True,
        }
    _emit(ctx, "adjust", payload, digest)


@main.command("path")
@click.option("--target", required=True, help="comma-separated rational coordinates")
@click.pass_context
def path_cmd(ctx, target):
    """Certified horizontal path to the target with its length bound."""
    alg, digest = _algebra_from(ctx)
    metric = build_popp(alg)
    vec = alg.vector(_parse_coords(target))
    tup, bound = certified_dcc_upper(alg, metric, vec)
    payload = {
        "algebra": alg.name,
        "target": _vector_json(vec),
        "bound": bound,
        "length": tup.length,
        "segments": [
            [as_float(c) for c in seg.layer(1)] for seg in tup.segments
        ],
        "segment_count": tup.segment_count,
        "endpoint_matches_target": True,
        "endpoint_exact": True,
        "lower_bound": cc_lower_bound(metric, vec),
    }
    csv_path = ctx.obj.get("csv")
    if csv_path:
        rows = []
        for i, wp in enumerate(tup.waypoints(), start=1):
            rows.append([i] + [as_float(c) for c in wp.coords()])
        _write_csv(
            csv_path,
            ["segment"] + [f"x{i + 1}" for i in range(alg.dim)],
            rows,
        )
    _emit(ctx, "path", payload, digest)


def sample_in_box(
    algebra: GradedAlgebra,
    metric: PoppMetric,
    radii,
    rng: np.random.Generator,
) -> GVec:
    """Uniform-in-ball per-layer sample, returned as an exact rational vector.

    Per layer: Gaussian direction, norm measured with the layer Gram matrix,
    radius scaled by u**(1/d).  Floats are rationalized and the exact layer
    quadratic form is re-checked against the radius, so every emitted sample
    is inside the box by construction.
    """
    coords: list[Fraction] = []
    for layer, (d, radius) in enumerate(
        zip(algebra.dims, radii), start=1
    ):
        radius = Fraction(radius)
        for _ in range(64):
            direction = rng.standard_normal(d)
            u = rng.uniform()
            norm = metric.layer_norm(layer, list(direction))
            if norm == 0.0:
                continue
            scale = float(radius) * u ** (1.0 / d) * (1 - 1e-9) / norm
            layer_coords = [
                Fraction(x * scale).limit_denominator(10 ** 12)
                for x in direction
            ]
            quad = metric.layer_quadform(layer, layer_coords)
            if quad <= radius * radius:
                coords.extend(layer_coords)
                break
        else:
            coords.extend([Fraction(0)] * d)
    return algebra.vector(coords)


@main.command("box-verify")
@click.option("--samples", type=int, required=True)
@click.pass_context
def box_verify(ctx, samples):
    """Sample the radius box and certify a unit path for every sample."""
    if samples < 0:
        raise click.UsageError("--samples must be >= 0")
    alg, digest = _algebra_from(ctx)
    metric = build_popp(alg)
    box = global_constants(alg.dims)
    seed = ctx.obj.get("seed", 0)
    import numpy as np  # only this command needs it; keeps start-up light

    rng = np.random.default_rng(seed)
    bins = [0.0] * 21
    max_bound = 0.0
    worst: GVec | None = None
    for _ in range(samples):
        vec = sample_in_box(alg, metric, box.radii, rng)
        try:
            _, bound = certified_dcc_upper(alg, metric, vec)
        except CertificateFailure as exc:
            click.echo(
                "certificate failure at target "
                f"{[str(c) for c in vec.coords()]}",
                err=True,
            )
            raise
        if bound > max_bound:
            max_bound = bound
            worst = vec
        slot = min(20, int(bound * 20))
        bins[slot] += 1
    payload = {
        "algebra": alg.name,
        "samples": samples,
        "radii": [str(r) for r in box.radii],
        "max_bound": max_bound,
        "all_within_unit": max_bound <= 1.0,
        "histogram_edges": [i / 20 for i in range(22)],
        "histogram_counts": [int(c) for c in bins],
        "worst_target": [str(Fraction(c)) for c in worst.coords()]
        if worst is not None
        else None,
    }
    if samples and max_bound > 1.0:
        _emit(ctx, "box-verify", payload, digest)
        raise CertificateFailure(
            f"sampled bound {max_bound} exceeds 1 at {payload['worst_target']}"
        )
    _emit(ctx, "box-verify", payload, digest)


@main.command("systole")
@click.option("--lattice", "lattice_path", required=True, type=click.Path(exists=False))
@click.option("--radius", type=int, required=True)
@click.pass_context
def systole_cmd(ctx, lattice_path, radius):
    """Systolic inequality report for a lattice document."""
    if radius < 1:
        raise click.UsageError("--radius must be >= 1")
    lattice = load_lattice(lattice_path)
    metric = build_popp(lattice.algebra)
    box = global_constants(lattice.algebra.dims)
    report = check_systolic_inequality(lattice, metric, box, radius)
    rows = report.pop("rows")
    payload = {"algebra": lattice.algebra.name, "lattice": lattice.name}
    payload.update(report)
    csv_path = ctx.obj.get("csv")
    if csv_path:
        _write_csv(
            csv_path,
            ["word", "coords", "lower", "upper"],
            [
                [r["word"], " ".join(r["coords"]), r["lower"], r["upper"]]
                for r in rows
            ],
        )
    _emit(ctx, "systole", payload, _document_digest(lattice_path))


@main.group()
def bch():
    """Group-law coefficient tables."""


@bch.command("tables")
@click.option("--kind", type=click.Choice(["beta", "gamma"]), required=True)
@click.option("--n", "n_factors", type=int, default=None, help="factor count (beta)")
@click.option("--j", "arity", type=int, default=None, help="commutator arity (gamma)")
@click.option("--k", "step", type=int, required=True)
@click.pass_context
def bch_tables(ctx, kind, n_factors, arity, step):
    """Export a canonical coefficient table as JSON."""
    if kind == "beta":
        if n_factors is None:
            raise click.UsageError("--n is required for beta tables")
        table = beta_table(n_factors, step)
        token = f"beta:{n_factors}:{step}"
    else:
        if arity is None:
            raise click.UsageError("--j is required for gamma tables")
        table = gamma_table(arity, step)
        token = f"gamma:{arity}:{step}"
    payload = table.to_json_dict()
    _emit(ctx, "bch tables", payload, _digest(token.encode("utf-8")))


if __name__ == "__main__":
    main()
