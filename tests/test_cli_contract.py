"""The command line's exit-code contract on generated inputs.

Hypothesis draws argv for ``path``, ``adjust`` (a full vector or one
``--layer``), ``box-verify`` and ``systole`` on heisenberg, heisenberg:2,
engel and free_nilpotent 2,3 and 2,4.  Coordinates are small fractions,
powers of ten from 1e-400 to 1e400, integers of 20 to 400 digits, p/10**k
with k up to 400, and junk that is no number; a lattice document is a
filtration-adapted basis drawn from the same coordinates, its first d1
vectors the generators.  A second test draws the engel algebra document
with one or two things changed (a factor's or an output's layer or index, a
coefficient, an appended or repeated output, a layer dimension) and runs
``algebra check``, ``path``, ``adjust --layer 2`` and ``popp gram`` on each.
Every command is run in-process twice.

- No input exits 4: that code means an internal bug, never bad input.
- Exit 0 means the report parses, every number in it is finite, and a
  reported ``lower_bound`` is at most its ``bound`` and ``endpoint_exact``
  is true.
- Any other exit prints nothing on stdout, except ``algebra check``, whose
  report then says ``"ok": false``.
- The same argv gives the same exit code and the same bytes both times.

The examples are found inputs that exited 4, kept as regressions.  The
draw is derandomized with a fixed budget, so the test is deterministic; the
``cli-contract-deep`` Hypothesis profile runs 5,000 random examples of each
test from ``--hypothesis-seed`` instead:

    pytest tests/test_cli_contract.py --hypothesis-profile=cli-contract-deep --hypothesis-seed=31
"""

from __future__ import annotations

import copy
import json
import math

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from test_cli import FLOAT_RANGE_INPUTS

DIMS = {
    "heisenberg": (2, 1),
    "heisenberg:2": (4, 1),
    "engel": (2, 1, 1),
    "free_nilpotent:2,3": (2, 1, 2),
    "free_nilpotent:2,4": (2, 1, 2, 3),
}

EXPONENTS = (-400, -320, -300, -200, -30, 30, 150, 200, 300, 308, 309, 400)

fraction = st.builds("{}/{}".format, st.integers(-30, 30), st.integers(1, 30))
nonzero_coordinate = st.one_of(
    fraction,
    st.builds(
        "{}1e{}".format, st.sampled_from(["", "-"]), st.sampled_from(EXPONENTS)
    ),
    st.builds(
        lambda digits, sign: sign + str(10 ** (digits - 1) + 7 * digits),
        st.integers(20, 400),
        st.sampled_from(["", "-"]),
    ),
    st.builds(
        lambda p, k: f"{p}/1{'0' * k}", st.integers(-999, 999), st.integers(1, 400)
    ),
    st.sampled_from(["nan", "inf", "1/0", "", "0x10", "1_000"]),
)
coordinate = st.one_of(st.just("0"), nonzero_coordinate)


def coordinates(n: int, entry=coordinate):
    return st.lists(entry, min_size=n, max_size=n).map(",".join)


@st.composite
def target_commands(draw):
    algebra = draw(st.sampled_from(sorted(DIMS)))
    dims = DIMS[algebra]
    command = draw(st.sampled_from(["path", "adjust"]))
    argv = ["--algebra", algebra, command]
    if command == "adjust" and draw(st.booleans()):
        layer = draw(st.integers(1, len(dims)))
        return argv + ["--target", draw(coordinates(dims[layer - 1])),
                       "--layer", str(layer)]
    return argv + ["--target", draw(coordinates(sum(dims)))]


@st.composite
def box_verify_commands(draw):
    algebra = draw(st.sampled_from(sorted(DIMS)))
    seed = draw(st.integers(-3, 2 ** 40))
    samples = draw(st.integers(0, 3))
    return ["--algebra", algebra, "--seed", str(seed),
            "box-verify", "--samples", str(samples)]


@st.composite
def systole_commands(draw):
    """A lattice document whose basis vector of leading layer j is zero
    below layer j, with drawn coordinates from layer j on: all of them
    small fractions, or all of them drawn from every kind of coordinate."""
    algebra = draw(st.sampled_from(sorted(DIMS)))
    dims = DIMS[algebra]
    entry, lead = draw(st.sampled_from(
        [(fraction, fraction), (coordinate, nonzero_coordinate)]
    ))
    basis = []
    for j, d in enumerate(dims):
        for i in range(d):
            row = ["0"] * sum(dims[:j])
            row += draw(coordinates(sum(dims[j:]), entry)).split(",")
            row[sum(dims[:j]) + i] = draw(lead)
            basis.append(row)
    doc = {"algebra": algebra, "generators": basis[:dims[0]],
           "malcev_basis": basis}
    radius = draw(st.integers(1, 3))
    return ["systole", "--lattice", json.dumps(doc), "--radius", str(radius)]


ENGEL_DOCUMENT = {
    "name": "engel",
    "dims": [2, 1, 1],
    "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]},
        {"a": [1, 1], "b": [2, 1], "out": [{"layer": 3, "idx": 1, "coeff": "1"}]},
    ],
}
DOCUMENT_INDICES = st.sampled_from([-1, 0, 1, 2, 3, 5])
DOCUMENT_COEFFS = st.sampled_from(["0", "1/0", "x", 1.5, True, "-2/3"])


def _pick(draw, items: list):
    return items[draw(st.integers(0, len(items) - 1))]


@st.composite
def mutated_algebra_documents(draw):
    """The engel document with one or two changes.  An appended output
    names a drawn index of an existing output's layer; a repeated one is an
    existing output again, with a drawn coefficient."""
    doc = copy.deepcopy(ENGEL_DOCUMENT)
    for _ in range(draw(st.integers(1, 2))):
        entry = _pick(draw, doc["brackets"])
        change = draw(st.sampled_from(
            ["factor", "output", "coeff", "append", "repeat", "dims"]
        ))
        if change == "factor":
            factor = entry[draw(st.sampled_from("ab"))]
            factor[draw(st.integers(0, 1))] = draw(DOCUMENT_INDICES)
        elif change == "dims":
            doc["dims"][draw(st.integers(0, 2))] = draw(DOCUMENT_INDICES)
        else:
            out = _pick(draw, entry["out"])
            if change == "output":
                out[draw(st.sampled_from(["layer", "idx"]))] = draw(DOCUMENT_INDICES)
            elif change == "coeff":
                out["coeff"] = draw(DOCUMENT_COEFFS)
            elif change == "append":
                entry["out"].append(dict(out, idx=draw(DOCUMENT_INDICES)))
            else:
                entry["out"].append(dict(out, coeff=draw(DOCUMENT_COEFFS)))
    return json.dumps(doc)


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


# 200 derandomized examples, and 100 documents; the "cli-contract-deep"
# profile (conftest.py) gives 5,000 of each drawn from --hypothesis-seed
# instead.
DEEP = settings.get_current_profile_name() == "cli-contract-deep"
BUDGET = settings.default if DEEP else settings(derandomize=True, max_examples=200)
DOCUMENT_BUDGET = (
    settings.default if DEEP else settings(derandomize=True, max_examples=100)
)


def _assert_contract(argv) -> None:
    first = invoke(argv)
    command = next(a for a in argv if a in (
        "path", "adjust", "box-verify", "systole", "popp", "algebra"
    ))
    event(f"{command} exit {first.exit_code}")
    assert first.exit_code != 4, first.stderr
    if first.exit_code == 0:
        payload = json.loads(first.stdout)["payload"]
        assert all(math.isfinite(x) for x in _numbers(payload))
        if "bound" in payload:
            assert payload["lower_bound"] <= payload["bound"]
        if "endpoint_exact" in payload:
            assert payload["endpoint_exact"] is True
    elif command == "algebra":
        assert json.loads(first.stdout)["payload"]["ok"] is False
    else:
        assert first.stdout == ""
    again = invoke(argv)
    assert (again.exit_code, again.stdout) == (first.exit_code, first.stdout)


@settings(
    BUDGET,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=st.one_of(target_commands(), box_verify_commands(), systole_commands()))
@example(argv=FLOAT_RANGE_INPUTS["covolume-overflows"])
@example(argv=FLOAT_RANGE_INPUTS["covolume-underflows"])
@example(argv=FLOAT_RANGE_INPUTS["gram-underflows"])
def test_every_input_ends_in_its_documented_exit_code(argv):
    _assert_contract(argv)


@settings(
    DOCUMENT_BUDGET,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=mutated_algebra_documents())
def test_every_mutated_algebra_document_ends_in_its_documented_exit_code(doc):
    _assert_contract(["algebra", "check", doc])
    for argv in (
        ["path", "--target", "1/3,-1/2,2/5,1/7"],
        ["adjust", "--target", "-2/7", "--layer", "2"],
        ["popp", "gram"],
    ):
        _assert_contract(["--algebra", doc, *argv])
