"""Command-line entry point with deterministic machine-readable reports.

Every command emits one JSON report {command, inputs_digest, seed, version,
payload}; identical inputs and seed give byte-identical output (timing is
logged to stderr, never into the report).  Exit codes: 0 success, 1 I/O,
2 usage or validation failure, 3 resource cap, 4 certificate failure (an
internal exactness check that can only fail on an implementation bug) or
any other unexpected exception, reported as one ``error:`` line without a
traceback.  The algebra is the global ``--algebra`` flag only.  The work cap
``CARNOT_CERT_CAP`` is not handled here: the library reads it where it is
enforced (:func:`carnotcert.graded_algebra.resource_cap`).  The command
line is read in one pass by :func:`_parse_args`, from the one table of
``GLOBAL_OPTIONS`` and ``COMMANDS``.

:func:`main` returns the exit code and never ends the process; library
callers and tests call it.  The console script and ``python -m
carnotcert.cli_reports`` enter through :func:`console_main`, which flushes
stdout and stderr and then ends the process at once, skipping the
interpreter's teardown: no ``atexit`` hook runs, so a tool that needs one
(coverage, say) calls :func:`main`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from . import __version__
from .adjustment import (
    AdjustedRow,
    adjust_to_layer_vector,
    adjust_tuple,
    cc_lower_bound,
    certified_dcc_upper,
)
from .bch_engine import beta_table, gamma_table
from .certificates import global_constants, hausdorff_dimension
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

try:  # the builtin module: hashlib would load OpenSSL for one digest
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

EXIT_IO = 1
EXIT_UNEXPECTED = 4
# bits of a box sample's numerators relative to its layer radius
SAMPLE_BITS = 40


class UsageError(Exception):
    """A command line the grammar or a command refuses: exit 2."""


def _digest(data: bytes) -> str:
    return "sha256:" + sha256(data).hexdigest()


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
        return as_float(x)
    return str(Fraction(x))


@contextlib.contextmanager
def _exact_int_str():
    """Lift the interpreter's int-to-str digit limit while a report is
    formatted, so an exact value of any size prints in full; parsed input
    keeps the limit.  Before Python 3.10.7 there is no limit to lift."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _vector_json(v: GVec) -> dict:
    return {
        "coords": [_scalar_json(c) for c in v.coords()],
        "coords_float": [as_float(c) for c in v.coords()],
    }


def _emit(args, command: str, payload: dict, digest: str):
    report = {
        "command": command,
        "inputs_digest": digest,
        "seed": args.seed,
        "version": __version__,
        "payload": payload,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    elapsed = time.perf_counter() - args.started
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    import csv  # only --csv needs it; keeps start-up light

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [format(x, ".17g") if isinstance(x, float) else x for x in row]
            )


def _algebra_from(args) -> tuple[GradedAlgebra, str]:
    """The algebra of the global ``--algebra`` and its inputs digest."""
    if not args.algebra:
        raise UsageError("no algebra given (use --algebra)")
    return resolve_algebra(args.algebra), _algebra_digest(args.algebra)


def _parse_coords(text: str) -> list[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coordinate list {text!r}") from exc


def algebra_check(args):
    """Validate an algebra document or builtin token."""
    token = args.spec or args.algebra
    if not token:
        raise UsageError("give a spec path or builtin token")
    digest = _algebra_digest(token)
    try:
        alg = resolve_algebra(token)
    except CarnotError as exc:
        payload = {
            "ok": False,
            "failure": type(exc).__name__,
            "detail": str(exc),
        }
        _emit(args, "algebra check", payload, digest)
        return exc.exit_code
    payload = {
        "ok": True,
        "name": alg.name,
        "dims": list(alg.dims),
        "step": alg.step,
        "hausdorff_dimension": hausdorff_dimension(alg.dims),
    }
    _emit(args, "algebra check", payload, digest)


def popp_gram(args):
    """Dump bracket matrices, Gram matrices and the orthonormal frame."""
    alg, digest = _algebra_from(args)
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
    _emit(args, "popp gram", payload, digest)


def constants_cmd(args):
    """Box radii and the derived volume / systolic constants."""
    alg, digest = _algebra_from(args)
    box = global_constants(alg.dims)
    with _exact_int_str():
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
    _emit(args, "constants", payload, digest)


def adjust_cmd(args):
    """Balanced horizontal decomposition with verified conditions."""
    alg, digest = _algebra_from(args)
    metric = build_popp(alg)
    coords = _parse_coords(args.target)
    layer = args.layer
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
                for r in _tensor_rows(hs)
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
    _emit(args, "adjust", payload, digest)


def _tensor_rows(hs) -> list:
    """All d1**j rows of a layer-j set, in the lex order of their words:
    each nonzero worded row (u, a, b) and, at (u, b, a), its partner; the
    other rows, (u, a, a) among them, are zero, with alpha 0.  On layer 1
    the target row is followed by d1 - 1 zero rows."""
    d1 = hs.algebra.dims[0]
    if hs.arity == 1:
        return hs.rows + [AdjustedRow(None, None, (0, Fraction(0)))] * (d1 - 1)
    rows = {row.word: row for row in hs.spelled_rows()}
    return [
        rows.get(word) or AdjustedRow(word, Fraction(0))
        for word in itertools.product(range(d1), repeat=hs.arity)
    ]


def path_cmd(args):
    """Certified horizontal path to the target with its length bound."""
    alg, digest = _algebra_from(args)
    metric = build_popp(alg)
    vec = alg.vector(_parse_coords(args.target))
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
    if args.csv:
        rows = []
        for i, wp in enumerate(tup.waypoints(), start=1):
            rows.append([i] + [as_float(c) for c in wp.coords()])
        _write_csv(
            args.csv,
            ["segment"] + [f"x{i + 1}" for i in range(alg.dim)],
            rows,
        )
    _emit(args, "path", payload, digest)


def sample_in_box(
    algebra: GradedAlgebra,
    metric: PoppMetric,
    radii,
    rng,
) -> GVec:
    """Uniform-in-ball per-layer sample on a power-of-two grid, inside the
    box exactly.

    Every variate is ``rng.random()`` (a ``random.Random`` or a numpy
    Generator).  Floats only choose the point: per layer, a Gaussian
    direction x by Box-Muller, its norm |x| from the layer's integer Gram
    and a radius scale u**(1/d).  The layer of radius r = rn/rd is drawn
    over the denominator 2**p, p = SAMPLE_BITS - (bit length of rn - bit
    length of rd), so its numerators n_i = round(x_i r 2**p u**(1/d) / |x|)
    have about SAMPLE_BITS bits at every step, however small r is.
    Integers decide: the sample is kept when
    sum g_ij n_i n_j rd**2 <= rn**2 g_den 4**p, the exact layer form
    against r**2; otherwise it is redrawn, at most 64 times per layer.
    """
    coords: list[Fraction] = []
    for layer, (d, radius) in enumerate(
        zip(algebra.dims, radii), start=1
    ):
        radius = Fraction(radius)
        rn, rd = radius.numerator, radius.denominator
        p = SAMPLE_BITS - (rn.bit_length() - rd.bit_length())
        g_den = metric.gram_denominator(layer)
        # int / int rounds correctly, as float(Fraction) does, with no gcd
        reach = (rn << p) / rd * (1 - 1e-9)  # about 2**SAMPLE_BITS
        limit = rn * rn * g_den << 2 * p
        rd2 = rd * rd
        for _ in range(64):
            x = [
                math.sqrt(-2 * math.log(1 - rng.random()))
                * math.cos(2 * math.pi * rng.random())
                for _ in range(d)
            ]
            u = rng.random()
            form, = metric.gram_forms(layer, (x,))
            if form <= 0.0:
                continue
            scale = reach * u ** (1.0 / d) / math.sqrt(form / g_den)
            n = [round(xi * scale) for xi in x]
            exact, = metric.gram_forms(layer, (n,))
            if exact * rd2 <= limit:
                coords.extend(Fraction(ni, 1 << p) for ni in n)
                break
        else:
            coords.extend([Fraction(0)] * d)
    return algebra.vector(coords)


def box_verify(args):
    """Sample the radius box and certify a unit path for every sample."""
    samples = args.samples
    if samples < 0:
        raise UsageError("--samples must be >= 0")
    if args.seed < 0:
        # random.Random seeds from |seed|: -3 would draw the samples of 3
        raise UsageError("--seed must be >= 0 for box-verify")
    alg, digest = _algebra_from(args)
    metric = build_popp(alg)
    box = global_constants(alg.dims)
    rng = random.Random(args.seed)
    bins = [0] * 21
    nonzero = [0] * alg.step
    max_bound = 0.0
    worst: GVec | None = None
    for _ in range(samples):
        vec = sample_in_box(alg, metric, box.radii, rng)
        for j in range(alg.step):
            nonzero[j] += any(vec.layer(j + 1))
        try:
            _, bound = certified_dcc_upper(alg, metric, vec)
        except CertificateFailure:
            print(
                "certificate failure at target "
                f"{[str(c) for c in vec.coords()]}",
                file=sys.stderr,
            )
            raise
        if bound > max_bound:
            max_bound = bound
            worst = vec
        bins[min(20, int(bound * 20))] += 1
    payload = {
        "algebra": alg.name,
        "samples": samples,
        "radii": [str(r) for r in box.radii],
        "max_bound": max_bound,
        "all_within_unit": max_bound <= 1.0,
        "histogram_edges": [i / 20 for i in range(22)],
        "histogram_counts": bins,
        "nonzero_layer_counts": nonzero,
        "worst_target": [str(Fraction(c)) for c in worst.coords()]
        if worst is not None
        else None,
    }
    _emit(args, "box-verify", payload, digest)
    if not payload["all_within_unit"]:
        raise CertificateFailure(
            f"sampled bound {max_bound} exceeds 1 at {payload['worst_target']}"
        )


def systole_cmd(args):
    """Systolic inequality report for a lattice document."""
    if args.radius < 1:
        raise UsageError("--radius must be >= 1")
    lattice = load_lattice(args.lattice)
    metric = build_popp(lattice.algebra)
    box = global_constants(lattice.algebra.dims)
    report = check_systolic_inequality(lattice, metric, box, args.radius)
    rows = report.pop("rows")
    payload = {"algebra": lattice.algebra.name, "lattice": lattice.name}
    payload.update(report)
    if args.csv:
        _write_csv(
            args.csv,
            ["word", "coords", "lower", "upper"],
            [
                [r["word"], " ".join(r["coords"]), r["lower"], r["upper"]]
                for r in rows
            ],
        )
    _emit(args, "systole", payload, _document_digest(args.lattice))


def bch_tables(args):
    """Export a canonical coefficient table as JSON."""
    if args.kind == "beta":
        if args.n is None:
            raise UsageError("--n is required for beta tables")
        table = beta_table(args.n, args.k)
        token = f"beta:{args.n}:{args.k}"
    else:
        if args.j is None:
            raise UsageError("--j is required for gamma tables")
        table = gamma_table(args.j, args.k)
        token = f"gamma:{args.j}:{args.k}"
    payload = table.to_json_dict()
    _emit(args, "bch tables", payload, _digest(token.encode("utf-8")))


def _file_path(value: str) -> str:
    if os.path.isdir(value):
        raise UsageError(f"{value!r} is a directory")
    return value


# The grammar.  An option is ``--name: (type, required, help)``; its type is
# a converter (str, int, _file_path) or a tuple of choices, and its value
# lands in ``args.name``.  A name without dashes is a positional argument.
GLOBAL_OPTIONS = {
    "--algebra": (str, False, "builtin token (heisenberg[:n], engel, free_nilpotent:d1,k) or spec file path"),
    "--seed": (int, False, "default: 0"),
    "--out": (_file_path, False, "also write the report to this file"),
    "--csv": (_file_path, False, "write auxiliary CSV rows here"),
}
_TARGET = (str, True, "comma-separated rational coordinates")
# command path -> (run function, its options)
COMMANDS = {
    ("algebra", "check"): (algebra_check, {"spec": (str, False, "builtin token or spec file path")}),
    ("popp", "gram"): (popp_gram, {}),
    ("constants",): (constants_cmd, {}),
    ("adjust",): (adjust_cmd, {
        "--target": _TARGET,
        "--layer": (int, False, "adjust a single layer vector instead of a full vector"),
    }),
    ("path",): (path_cmd, {"--target": _TARGET}),
    ("box-verify",): (box_verify, {"--samples": (int, True, None)}),
    ("systole",): (systole_cmd, {"--lattice": (str, True, None), "--radius": (int, True, None)}),
    ("bch", "tables"): (bch_tables, {
        "--kind": (("beta", "gamma"), True, None),
        "--n": (int, False, "factor count (beta)"),
        "--j": (int, False, "commutator arity (gamma)"),
        "--k": (int, True, None),
    }),
}
GROUPS = {
    "algebra": "Structure-constant document operations.",
    "popp": "Induced layer metric queries.",
    "bch": "Group-law coefficient tables.",
}
DESCRIPTION = "Certified Carnot-group computations with machine-readable reports."
HELP = ("-h", "--help")


def _level(path: tuple) -> tuple[dict, list]:
    """The options of the parser at ``path`` and the words that may follow
    it (none at a command)."""
    options = GLOBAL_OPTIONS if not path else COMMANDS.get(path, (None, {}))[1]
    words = [] if path in COMMANDS else list(dict.fromkeys(
        p[len(path)] for p in COMMANDS if p[:len(path)] == path))
    return options, words


def _spelling(name: str, kind) -> str:
    """An option with its value's name, as usage and help show it."""
    if not name.startswith("-"):
        return name
    return f"{name} " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper())


def _usage(path: tuple) -> str:
    options, words = _level(path)
    parts = ["usage: carnotcert", *path, "[-h]"]
    for name, (kind, required, _) in options.items():
        spelling = _spelling(name, kind)
        parts.append(spelling if required else f"[{spelling}]")
    if words:
        parts.append("COMMAND ...")
    return " ".join(parts)


def _help(path: tuple) -> str:
    """The help of the parser at ``path``: its usage, description, the
    commands under it and its options."""
    options, words = _level(path)
    if path in COMMANDS:
        doc = COMMANDS[path][0].__doc__
    else:
        doc = GROUPS[path[0]] if path else DESCRIPTION
    commands = [(" ".join(p[len(path):]), run.__doc__)
                for p, (run, _) in COMMANDS.items() if words and p[:len(path)] == path]
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(_spelling(name, kind), text or "") for name, (kind, _, text) in options.items()]
    width = max(len(name) for name, _ in commands + rows) + 2
    sections = [_usage(path), doc]
    for title, section in (("commands", commands), ("options", rows)):
        if section:
            sections.append(f"{title}:\n" + "\n".join(
                f"  {name:{width}}{text}".rstrip() for name, text in section))
    return "\n\n".join(sections)


def _fail(path: tuple, message: str):
    """Refuse the command line: the usage of the parser at ``path`` and
    ``<prog>: error: <message>`` on stderr, exit 2."""
    prog = " ".join(["carnotcert", *path])
    print(f"{_usage(path)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_args(argv: list) -> SimpleNamespace:
    """The namespace of one command line, read in one pass over its tokens.

    Each level (the global options, a command group, a command) reads its
    tokens left to right.  A token is an option only if it names one of the
    level's own options, as ``--name`` or ``--name=value``, so none is
    abbreviated and a value may start with ``-``; an option's value is the
    next token, unless that is an option of the level or ``--``.  A
    repeated option keeps its last value, and ``-h``/``--help`` prints the
    level's help and exits 0.  The first other token of the global options
    or of a group is the next command word.  The other tokens of a command
    are its positional argument, then leftovers, which, like every token
    from a ``--`` on, are "unrecognized arguments".  A refused line exits 2
    through :func:`_fail` with the ``error:`` line argparse gave.
    """
    args = {"algebra": None, "seed": 0, "out": None, "csv": None}
    path, tokens = (), list(argv)
    while True:
        options, words = _level(path)
        flags = {*HELP, *(name for name in options if name.startswith("-"))}
        if path:
            args.update((name.lstrip("-"), None) for name in options)
        others, i = [], 0
        while i < len(tokens):
            name, eq, value = tokens[i].partition("=")
            if name not in flags:
                if words or tokens[i] == "--":
                    others += tokens[i:]
                    break
                others.append(tokens[i])
                i += 1
                continue
            if name in HELP:
                if eq:
                    _fail(path, f"argument -h/--help: ignored explicit argument {value!r}")
                print(_help(path))
                raise SystemExit(0)
            if not eq:
                i += 1
                if i == len(tokens) or tokens[i] == "--" or tokens[i].partition("=")[0] in flags:
                    _fail(path, f"argument {name}: expected one argument")
                value = tokens[i]
            i += 1
            kind = options[name][0]
            try:
                if not isinstance(kind, tuple):
                    value = kind(value)
                elif value not in kind:
                    raise UsageError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
            except ValueError:
                _fail(path, f"argument {name}: invalid {kind.__name__} value: {value!r}")
            except UsageError as exc:
                _fail(path, f"argument {name}: {exc}")
            args[name.lstrip("-")] = value
        if not words:
            break
        if others in ([], ["--"]):
            _fail(path, "the following arguments are required: COMMAND")
        if others[0] not in words:
            choices = ", ".join(map(repr, words))
            _fail(path, f"argument COMMAND: invalid choice: {others[0]!r} (choose from {choices})")
        path, tokens = path + (others[0],), others[1:]
    run, options = COMMANDS[path]
    if "spec" in options and others:
        # the optional positional takes the first argument, and a "--" just
        # before or after it
        lead = others[0] == "--"
        args["spec"] = others[lead] if len(others) > lead else None
        others = others[lead + 1:]
        if not lead and others[:1] == ["--"]:
            others = others[1:]
    missing = [name for name, (_, required, _) in options.items()
               if required and args[name.lstrip("-")] is None]
    if missing:
        _fail(path, f"the following arguments are required: {', '.join(missing)}")
    if others:
        _fail((), f"unrecognized arguments: {' '.join(others)}")
    return SimpleNamespace(run=run, **args)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    A usage error exits 2, and ``--help`` exits 0, through SystemExit.  A
    CarnotError or OSError is reported as ``error: <message>`` with its exit
    code: the CarnotError's own ``exit_code`` (3 for a resource cap, 4 for a
    certificate failure, 2 for any other validation failure), 1 for I/O.
    Any other exception is a bug, reported as ``error: <Type>: <message>``
    with exit code 4 instead of a traceback.
    """
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    args.started = time.perf_counter()
    try:
        return args.run(args) or 0
    except UsageError as exc:
        _fail((), str(exc))
    except (CarnotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, CarnotError) else EXIT_IO
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_UNEXPECTED


# click's standalone call, main.main(args=..., prog_name=...), exiting with
# the code: perfbench/cli_oneshot.py still runs the CLI this way.  It stays
# until ROADMAP item 7a moves perfbench to main(argv).
main.main = lambda args=None, prog_name=None: sys.exit(main(args))


def console_main():
    """The process entry: run :func:`main` on ``sys.argv``, flush both
    streams, and end the process with its code, skipping interpreter
    teardown (as ``mypy.util.hard_exit`` does).  If a flush fails, exit
    through ``sys.exit`` instead, so the interpreter reports the failure as
    it would without this entry."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
