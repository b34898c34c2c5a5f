import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from decimal import localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotcert.graded_algebra import builtin_family, resolve_algebra
from carnotcert.popp_metric import build_popp
from cli_runner import invoke
from oracle_utils import (
    created_radicals,
    decimal_value,
    full_preimage_oracle,
    quadform_oracle,
    tensor_words,
)

LATTICE_DOC = {
    "name": "integer-heisenberg",
    "algebra": "heisenberg:1",
    "generators": [["1", "0", "0"], ["0", "1", "0"]],
    "malcev_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}

ENGEL_LATTICE_DOC = {
    "name": "integer-engel",
    "algebra": "engel",
    "generators": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
    "malcev_basis": [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "1"],
    ],
}

# the integer Engel lattice dilated by 7/5: its coordinates have
# denominators, which the integer lattice's do not
ENGEL_7_5_LATTICE_DOC = {
    "name": "engel-dilated-7/5",
    "algebra": "engel",
    "generators": [["7/5", "0", "0", "0"], ["0", "7/5", "0", "0"]],
    "malcev_basis": [
        ["7/5", "0", "0", "0"],
        ["0", "7/5", "0", "0"],
        ["0", "0", "49/25", "0"],
        ["0", "0", "0", "343/125"],
    ],
}


def _payload(result):
    return json.loads(result.stdout)["payload"]


def test_algebra_check_ok():
    result = invoke(["algebra", "check", "heisenberg:1"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["ok"] and payload["dims"] == [2, 1]
    assert payload["hausdorff_dimension"] == 4


def test_algebra_check_free_nilpotent():
    result = invoke(["algebra", "check", "free_nilpotent:2,3"])
    assert result.exit_code == 0
    assert _payload(result)["dims"] == [2, 1, 2]


def test_algebra_check_failure_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "name": "bad",
                "dims": [2, 2],
                "brackets": [
                    {
                        "a": [1, 1],
                        "b": [1, 2],
                        "out": [{"layer": 2, "idx": 1, "coeff": "1"}],
                    }
                ],
            }
        )
    )
    result = invoke(["algebra", "check", str(bad)])
    assert result.exit_code == 2
    payload = _payload(result)
    assert not payload["ok"]
    assert payload["failure"] == "NotBracketGenerating"


def test_missing_file_is_io_error():
    result = invoke(["algebra", "check", "/nope/missing.json"])
    assert result.exit_code == 1


# one failing invocation per command, with its documented exit code
FAILING_COMMANDS = [
    pytest.param(["algebra", "check", "/nope/missing.json"], 1, id="algebra-check"),
    pytest.param(["--algebra", "/nope/missing.json", "popp", "gram"], 1, id="popp-gram"),
    pytest.param(["--algebra", "free_nilpotent:9,9", "constants"], 2, id="constants"),
    pytest.param(
        ["--algebra", "engel", "adjust", "--target", "1,2,3"], 2, id="adjust"
    ),
    pytest.param(["--algebra", "engel", "path", "--target", "1,2"], 2, id="path"),
    pytest.param(
        ["--algebra", "/nope/missing.json", "box-verify", "--samples", "1"],
        1,
        id="box-verify",
    ),
    pytest.param(
        ["systole", "--lattice", "/nope/lattice.json", "--radius", "2"],
        1,
        id="systole",
    ),
    pytest.param(
        ["bch", "tables", "--kind", "beta", "--n", "2", "--k", "30"],
        3,
        id="bch-tables",
    ),
]


@pytest.mark.parametrize("argv,code", FAILING_COMMANDS)
def test_failure_is_one_error_line(argv, code):
    """A failing command exits with its code and one ``error:`` line on
    stderr, prints nothing on stdout and raises no exception to a
    traceback."""
    result = invoke(argv)
    assert result.exit_code == code
    assert type(result.exception) is SystemExit
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr


def test_algebra_check_failure_is_a_payload(tmp_path):
    """``algebra check`` reports an invalid document as its failure payload
    on stdout, exit code 2, without an ``error:`` line or traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = invoke(["algebra", "check", str(bad)])
    assert result.exit_code == 2
    assert type(result.exception) is SystemExit
    payload = _payload(result)
    assert not payload["ok"] and payload["failure"] == "ParseError"
    assert "error:" not in result.stderr and "Traceback" not in result.stderr


NOT_UTF8 = b"\xff\xfe{\"name\": \"h\"}"


def test_algebra_check_not_utf8_is_a_parse_error(tmp_path):
    """A document whose bytes are not UTF-8 is malformed input: a
    ParseError payload with exit code 2, not an internal failure."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    result = invoke(["algebra", "check", str(bad)])
    assert result.exit_code == 2
    payload = _payload(result)
    assert not payload["ok"] and payload["failure"] == "ParseError"
    assert "Traceback" not in result.stderr


HEISENBERG_BRACKETS = (
    '"brackets": [{"a": [1, 1], "b": [1, 2],'
    ' "out": [{"layer": 2, "idx": 1, "coeff": "1"}]}]'
)


@pytest.mark.parametrize(
    "doc",
    [
        '{"dims": [2, 1], "brackets": 5}',
        '{"dims": [2, 1], ' + HEISENBERG_BRACKETS + ', "inner1": 5}',
        '{"dims": [2, 1], ' + HEISENBERG_BRACKETS + ', "inner1": [5, 6]}',
    ],
)
def test_algebra_check_malformed_document_is_a_parse_error(doc):
    result = invoke(["algebra", "check", doc])
    assert result.exit_code == 2
    assert _payload(result)["failure"] == "ParseError"


def _bracket_document(dims, *brackets):
    return json.dumps({"dims": dims, "brackets": [
        {"a": a, "b": b, "out": [{"layer": l, "idx": i, "coeff": c} for l, i, c in out]}
        for a, b, out in brackets
    ]})


# Engel-shaped documents whose [X1, X2] names a second output outside layer
# 2 (idx 2, past its one vector; idx 0, before it), and a Heisenberg one
# whose [X1, X2] names X3 twice; each used to load.
BAD_OUTPUT_DOCUMENTS = {
    "output-idx-past-its-layer": (_bracket_document(
        [2, 1, 1],
        ([1, 1], [1, 2], [(2, 1, "1"), (2, 2, "1")]),
        ([1, 1], [2, 1], [(3, 1, "1")]),
    ), "1/3,-1/2,2/5,1/7"),
    "output-idx-zero": (_bracket_document(
        [2, 1, 1],
        ([1, 1], [1, 2], [(2, 1, "1"), (2, 0, "1")]),
        ([1, 1], [2, 1], [(3, 1, "1")]),
    ), "1/3,-1/2,2/5,1/7"),
    "output-named-twice": (_bracket_document(
        [2, 1], ([1, 1], [1, 2], [(2, 1, "1"), (2, 1, "5")]),
    ), "1/3,-1/2,2/5"),
}


@pytest.mark.parametrize("name", sorted(BAD_OUTPUT_DOCUMENTS))
def test_bracket_output_outside_its_layer_or_named_twice_exits_2(name):
    doc, target = BAD_OUTPUT_DOCUMENTS[name]
    check = invoke(["algebra", "check", doc])
    assert check.exit_code == 2
    payload = _payload(check)
    assert payload["ok"] is False and payload["failure"] == "ParseError"
    for argv in (
        ["path", "--target", target],
        ["adjust", "--target", "1", "--layer", "2"],
        ["box-verify", "--samples", "2"],
        ["popp", "gram"],
    ):
        result = invoke(["--algebra", doc, *argv])
        assert (result.exit_code, result.stdout) == (2, ""), (argv, result.stderr)
        assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr


@pytest.mark.parametrize("algebra", ["5", "null", '{"dims": [2, 1]}'])
def test_lattice_algebra_of_wrong_type_is_a_parse_error(algebra):
    doc = (
        f'{{"algebra": {algebra}, "generators": [["1", "0", "0"]],'
        ' "malcev_basis": [["1", "0", "0"]]}'
    )
    result = invoke(["systole", "--lattice", doc, "--radius", "2"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: lattice algebra must be")


def test_lattice_not_utf8_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    result = invoke(["systole", "--lattice", str(bad), "--radius", "2"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: invalid JSON")


@pytest.mark.parametrize(
    "generators",
    [[], [["0", "0", "0"], ["0", "0", "0"]]],
    ids=["empty", "identity"],
)
def test_lattice_generators_must_span_layer_1(generators):
    """Generators whose layer-1 parts do not span layer 1 generate no
    lattice: malformed input (exit 2), not a resource cap (exit 3)."""
    doc = json.dumps(dict(LATTICE_DOC, generators=generators))
    result = invoke(["systole", "--lattice", doc, "--radius", "2"])
    assert result.exit_code == 2
    assert result.stderr.startswith(
        "error: generator logs span rank 0 < 2 in layer 1"
    )


@pytest.mark.parametrize("field", ["generators", "malcev_basis"])
def test_lattice_zero_denominator_is_a_parse_error(field):
    """A coordinate "1/0" is malformed input (exit 2), not an internal
    failure (exit 4)."""
    rows = [list(row) for row in LATTICE_DOC[field]]
    rows[0][0] = "1/0"
    doc = json.dumps(dict(LATTICE_DOC, **{field: rows}))
    result = invoke(["systole", "--lattice", doc, "--radius", "2"])
    assert result.exit_code == 2
    assert result.stderr == "error: malformed lattice document: Fraction(1, 0)\n"


@pytest.mark.parametrize(
    "algebra,target,need",
    [("engel", "1", 2), ("heisenberg", "1", 2), ("heisenberg:2", "1,2,3", 4)],
)
def test_adjust_layer_1_with_too_few_coordinates_is_a_parse_error(
    algebra, target, need
):
    """Too few layer-1 coordinates exit 2, as too many do and as too few do
    on the layers above."""
    result = invoke(
        ["--algebra", algebra, "adjust", "--target", target, "--layer", "1"]
    )
    assert result.exit_code == 2
    assert result.stderr == f"error: layer 1 needs {need} coordinates\n"


HUGE_GENERATOR_DOC = json.dumps(
    dict(LATTICE_DOC, generators=[["1e400", "0", "0"], ["0", "1", "0"]])
)


@pytest.mark.parametrize(
    "argv",
    [
        ["--algebra", "heisenberg", "path", "--target", "1e400,0,0"],
        ["--algebra", "engel", "adjust", "--target", "0,0,1e400,0"],
        ["systole", "--lattice", HUGE_GENERATOR_DOC, "--radius", "2"],
    ],
    ids=["path", "adjust", "systole"],
)
def test_value_beyond_the_float_range_is_bad_input(argv):
    """An exact input whose reported floats overflow exits 2 with one
    typed error line, not 4 with a raw OverflowError."""
    result = invoke(argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "error: exact value too large for a float\n"


def _scaled_heisenberg_lattice(scale):
    """The integer Heisenberg lattice with layer 1 scaled by 10**scale and
    layer 2 by 10**(2 * scale): covolume 10**(4 * scale) / sqrt(2)."""
    a, b = f"1e{scale}", f"1e{2 * scale}"
    return json.dumps({
        "algebra": "heisenberg",
        "generators": [[a, "0", "0"], ["0", a, "0"]],
        "malcev_basis": [[a, "0", "0"], ["0", a, "0"], ["0", "0", b]],
    })


# heisenberg with [X1, X2] = 10**200 X3: its layer-2 Gram is 10**-400
HEISENBERG_HUGE_BRACKET_DOC = json.dumps({
    "name": "heisenberg-huge-bracket",
    "dims": [2, 1],
    "brackets": [{"a": [1, 1], "b": [1, 2],
                  "out": [{"layer": 2, "idx": 1, "coeff": "1" + "0" * 200}]}],
})

# also examples of tests/test_cli_contract.py
FLOAT_RANGE_INPUTS = {
    "covolume-overflows": [
        "systole", "--lattice", _scaled_heisenberg_lattice(150), "--radius", "1"
    ],
    "covolume-underflows": [
        "systole", "--lattice", _scaled_heisenberg_lattice(-150), "--radius", "1"
    ],
    "gram-underflows": ["--algebra", HEISENBERG_HUGE_BRACKET_DOC, "popp", "gram"],
}


@pytest.mark.parametrize(
    "argv", FLOAT_RANGE_INPUTS.values(), ids=FLOAT_RANGE_INPUTS.keys()
)
def test_volume_or_gram_outside_the_float_range_is_bad_input(argv):
    """A covolume or Gram whose float overflows to infinity or underflows
    to 0 exits 2 with one typed error line; these inputs exited 4 with a
    raw OverflowError or ZeroDivisionError."""
    result = invoke(argv)
    assert result.exit_code == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr in (
        "error: exact value too large for a float\n",
        "error: exact value outside the float range (its float is 0.0)\n",
    )


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1(b): scalars.root_norm reads |alpha| as a float "
    "(_magnitude), which overflows although the row scale 1e200 fits; past "
    "it, the report's target coords_float cannot hold 1e400 either",
)
def test_radicand_beyond_the_float_range_certifies():
    """(0, 0, 1e400): the layer-2 row scale is 1e200 and the bound about
    5.7e200, both floats, though the preimage coefficient 1e400 / 2 and the
    target coordinate 1e400 are not."""
    result = invoke(["--algebra", "heisenberg", "path", "--target", "0,0,1e400"])
    assert result.exit_code == 0, result.stderr


def test_norm_that_fits_a_float_certifies_beyond_its_square():
    """(1e200, 0, 0): its squared norm overflows a float, its norm does not;
    the root is taken in integers first and the path certifies."""
    result = invoke(
        ["--algebra", "heisenberg", "path", "--target", "1e200,0,0"]
    )
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["bound"] == payload["lower_bound"] == 1e200


@pytest.mark.parametrize(
    "target,largest",
    [
        ("1e200,0,0,0", 1e200),
        ("1e200,7e250,-8,-5/7", 7e250),
        ("1,1,1,1e300", 1e300 / math.sqrt(2)),
    ],
)
def test_adjust_norm_whose_square_overflows(target, largest):
    """A stage norm whose float square overflows a float, but which fits
    one itself, is reported: these targets exited 4 with a raw
    OverflowError."""
    result = invoke(["--algebra", "engel", "adjust", "--target", target])
    assert result.exit_code == 0, result.output
    norms = [s["norm_value"] for s in _payload(result)["stage_conditions"]]
    assert math.isclose(max(norms), largest, rel_tol=1e-12)


def test_adjust_norm_value_is_the_exact_layer_norm():
    """Each stage's norm_value is within one ulp of the 60-digit norm of its
    exact layer target, read off the report's target and prefix errors.
    Printed from float products of rounded row norms, stage 3 of this
    target read 2.828427124746118e+200, 2.5e-14 relative off."""
    result = invoke(
        ["--algebra", "engel", "adjust", "--target", "1e200,7e250,-8,-5/7"]
    )
    assert result.exit_code == 0, result.output
    payload = _payload(result)
    engel = builtin_family("engel")
    grams = build_popp(engel).grams
    target = [Fraction(c) for c in payload["target"]["coords"]]
    stages = payload["stage_conditions"]
    for j, stage in enumerate(stages, start=1):
        lo, hi = engel.offsets[j - 1], engel.offsets[j]
        error = payload["prefix_errors"].get(f"{j},{j - 1}", ["0"] * (hi - lo))
        coords = [t - Fraction(e) for t, e in zip(target[lo:hi], error)]
        with localcontext() as ctx:
            ctx.prec = 60
            exact = float(decimal_value(quadform_oracle(grams[j], coords)).sqrt())
        assert abs(stage["norm_value"] - exact) <= math.ulp(exact), j
    assert stages[2]["norm_value"] == 2.82842712474619e200


def test_float_mode_option_is_gone():
    result = invoke(
        ["--mode", "float", "--algebra", "engel", "path", "--target", "1,2,3,4"]
    )
    assert result.exit_code == 2
    assert "invalid choice: '--mode'" in result.stderr


def test_constants_heisenberg():
    result = invoke(["--algebra", "heisenberg", "constants"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["radii"] == ["1/2", "1/512"]
    assert payload["radii_float"] == [0.5, 0.001953125]
    assert payload["hausdorff_dimension"] == 4
    assert abs(payload["systolic_constant"] - 8.498015456217576) < 1e-9


def test_constants_line():
    result = invoke(["--algebra", "free_nilpotent:1,1", "constants"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["radii"] == ["1"]
    assert payload["systolic_constant"] == 1.0


def test_constants_engel_trace():
    result = invoke(["--algebra", "engel", "constants"])
    payload = _payload(result)
    assert len(payload["trace"]) == 1
    assert payload["trace"][0]["residual"] <= 1e-12
    assert all(float(rf) > 0 for rf in payload["radii_float"])


@pytest.mark.parametrize("spec", ["free_nilpotent:2,5", "free_nilpotent:3,4"])
def test_constants_volume_underflow(spec):
    """The ball volume underflows a float here; the systolic constant comes
    from its exact parts in log space."""
    result = invoke(["--algebra", spec, "constants"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["ball_volume_lower_bound"] == 0.0
    constant = payload["systolic_constant"]
    assert math.isfinite(constant) and constant > 0
    assert all(Fraction(r) > 0 for r in payload["radii"])
    assert all(rf > 0 for rf in payload["radii_float"])


@pytest.mark.parametrize(
    "spec,dims,pi_exponent",
    [
        ("free_nilpotent:3,5", [3, 3, 8, 18, 48], 39),
        ("free_nilpotent:4,4", [4, 6, 20, 60], 45),
        ("free_nilpotent:5,3", [5, 10, 40], 27),
    ],
)
def test_constants_print_the_exact_volume_in_full(spec, dims, pi_exponent):
    """Layers wider than 20 keep an exact ball volume, and its rational
    (10,969 digits for free_nilpotent:3,5) prints in full, past the
    interpreter's int-to-str digit limit, which is back in place after."""
    from carnotcert.certificates import global_constants
    from carnotcert.cli_reports import _exact_int_str

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    result = invoke(["--algebra", spec, "constants"])
    assert result.exit_code == 0, result.stderr
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    payload = _payload(result)
    assert payload["dims"] == dims
    exact = payload["ball_volume_exact"]
    assert exact["pi_exponent"] == pi_exponent
    with _exact_int_str():
        frac = Fraction(exact["rational"])
    assert frac == global_constants(dims).ball_volume_frac


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="no int-to-str digit limit before Python 3.10.7",
)
def test_input_keeps_the_digit_limit():
    """Only report formatting lifts the limit: a 5,000-digit coordinate is
    still refused as bad input."""
    result = invoke(["--algebra", "engel", "path", "--target", "1" * 5000 + ",0,0,0"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: bad coordinate list")


@pytest.mark.parametrize(
    "command, target",
    [
        (["path"], "1/3,,-1/2,2/5,1/7"),
        (["path"], ",1/3,-1/2,2/5,1/7"),
        (["path"], "1/3,-1/2,2/5,1/7,"),
        (["adjust", "--layer", "1"], "1/3,,2/5"),
        (["adjust", "--layer", "1"], ",1/3,2/5"),
        (["adjust", "--layer", "1"], "1/3,2/5,"),
    ],
    ids=[
        f"{command}-{field}"
        for command in ("path", "adjust-layer")
        for field in ("middle", "leading", "trailing")
    ],
)
def test_empty_coordinate_field_is_refused(command, target):
    """An empty field of a coordinate list is a bad coordinate, not one to
    skip: dropping it would certify the remaining coordinates, which have
    the right count."""
    result = invoke(["--algebra", "engel", command[0], "--target", target, *command[1:]])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: bad coordinate list {target!r}\n"


def test_popp_gram():
    result = invoke(["--algebra", "heisenberg", "popp", "gram"])
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["layers"]["2"]["gram"] == [["1/2"]]
    assert payload["layers"]["2"]["bracket_matrix"] == [["0", "1", "-1", "0"]]


def test_adjust_layer():
    result = invoke(
        ["--algebra", "heisenberg", "adjust", "--target", "1", "--layer", "2"],
    )
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["conditions"]["sum_exact"]
    live = [r for r in payload["rows"] if r["sign"]]
    assert [r["alpha"] for r in live] == ["1/2", "-1/2"]


def test_adjust_tuple():
    result = invoke(
        ["--algebra", "engel", "adjust", "--target", "1/3,-1/2,2/5,1/7"],
    )
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["kind"] == "tuple"
    assert payload["reconstruction_exact"]


def test_path_command(tmp_path):
    csv_file = tmp_path / "waypoints.csv"
    result = invoke(
        [
            "--algebra",
            "heisenberg",
            "--csv",
            str(csv_file),
            "path",
            "--target",
            "0,0,1",
        ],
    )
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["segment_count"] == 8
    assert payload["endpoint_matches_target"]
    assert abs(payload["bound"] - 5.656854249492381) < 1e-12
    lines = csv_file.read_text().strip().splitlines()
    assert len(lines) == 9  # header + one row per segment


def test_path_waypoint_csv_pinned(tmp_path):
    """The waypoint CSV bytes: sha256 recorded before a path held its
    segments as a letter program built on demand."""
    csv_file = tmp_path / "waypoints.csv"
    result = invoke(
        [
            "--algebra",
            "engel",
            "--csv",
            str(csv_file),
            "path",
            "--target",
            "1/3,-1/2,2/5,1/7",
        ],
    )
    assert result.exit_code == 0
    assert hashlib.sha256(csv_file.read_bytes()).hexdigest() == (
        "6af68d6209b0acf8501a587a146f2e2e387be6c059d83e5a0ee2584607bbd1a5"
    )


def test_box_verify():
    result = invoke(
        ["--algebra", "heisenberg", "--seed", "3", "box-verify", "--samples", "50"],
    )
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["all_within_unit"]
    assert payload["max_bound"] <= 1.0
    assert sum(payload["histogram_counts"]) == 50


def test_box_verify_zero_samples():
    result = invoke(
        ["--algebra", "heisenberg", "box-verify", "--samples", "0"]
    )
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["max_bound"] == 0.0 and payload["samples"] == 0


def test_systole_command(tmp_path):
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(LATTICE_DOC))
    csv_file = tmp_path / "rows.csv"
    result = invoke(
        [
            "--csv",
            str(csv_file),
            "systole",
            "--lattice",
            str(lat),
            "--radius",
            "2",
        ],
    )
    assert result.exit_code == 0
    payload = _payload(result)
    assert payload["satisfied"] and payload["sys_upper"] == 1.0
    assert csv_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert header == "word,coords,lower,upper"


def test_systole_radius_zero_usage_error(tmp_path):
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(LATTICE_DOC))
    result = invoke(
        ["systole", "--lattice", str(lat), "--radius", "0"]
    )
    assert result.exit_code == 2


def test_bch_tables_command():
    result = invoke(
        ["bch", "tables", "--kind", "beta", "--n", "2", "--k", "3"]
    )
    assert result.exit_code == 0
    payload = _payload(result)
    assert {"idx": [1, 1, 2], "coeff": "1/12"} in payload["entries"]
    result2 = invoke(
        ["bch", "tables", "--kind", "gamma", "--j", "2", "--k", "3"]
    )
    assert result2.exit_code == 0
    assert json.loads(result2.stdout)["payload"]["kind"] == "gamma"


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    result = invoke(
        ["--algebra", "heisenberg", "--out", str(out), "constants"]
    )
    assert result.exit_code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(result.stdout)


def test_determinism_same_seed():
    args = ["--algebra", "heisenberg", "--seed", "11", "box-verify", "--samples", "40"]
    first = invoke(args)
    second = invoke(args)
    assert first.stdout == second.stdout


HEISENBERG_DOC = {
    "name": "heisenberg-doc",
    "dims": [2, 1],
    "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]}
    ],
}


def test_report_does_not_depend_on_document_path(tmp_path):
    """inputs_digest hashes a document's bytes, not the path it was read at."""
    reports = {}
    for name, doc, argv in (
        ("lattice.json", LATTICE_DOC, ["systole", "--radius", "2", "--lattice", "{}"]),
        ("algebra.json", HEISENBERG_DOC, ["--algebra", "{}", "adjust", "--target", "1,0,1"]),
    ):
        for sub in ("a", "b/c"):
            path = tmp_path / sub / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(doc))
            result = invoke([str(path) if a == "{}" else a for a in argv])
            assert result.exit_code == 0, result.output
            reports.setdefault(name, []).append(result.stdout)
        first, second = reports[name]
        assert first == second
        digest = json.loads(first)["inputs_digest"]
        raw = json.dumps(doc).encode("utf-8")
        assert digest == "sha256:" + hashlib.sha256(raw).hexdigest()


def test_builtin_token_digest_ignores_same_named_file(tmp_path, monkeypatch):
    argv = ["--algebra", "engel", "adjust", "--target", "1,1/2,0,1/3"]
    clean = invoke(argv)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "engel").write_text(json.dumps(HEISENBERG_DOC))
    shadowed = invoke(argv)
    assert clean.exit_code == shadowed.exit_code == 0
    assert clean.stdout == shadowed.stdout
    digest = json.loads(clean.stdout)["inputs_digest"]
    assert digest == "sha256:" + hashlib.sha256(b"engel").hexdigest()


def test_work_cap_env(monkeypatch):
    monkeypatch.setenv("CARNOT_CERT_CAP", "10")
    result = invoke(["algebra", "check", "free_nilpotent:2,4"])
    assert result.exit_code == 2  # family params rejected under the tiny cap


def test_cap_exit_code():
    """2**30 and 9**9 exceed the default cap: the beta and gamma tables are
    refused before any work."""
    for argv in (
        ["bch", "tables", "--kind", "beta", "--n", "2", "--k", "30"],
        ["bch", "tables", "--kind", "gamma", "--j", "9", "--k", "9"],
    ):
        result = invoke(argv)
        assert result.exit_code == 3, argv


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_cap_value_is_a_validation_error(monkeypatch, value):
    monkeypatch.setenv("CARNOT_CERT_CAP", value)
    result = invoke(["--algebra", "engel", "constants"])
    assert result.exit_code == 2
    assert type(result.exception) is SystemExit
    assert result.stdout == ""
    assert result.stderr == (
        f"error: CARNOT_CERT_CAP must be a positive integer, got {value!r}\n"
    )


def test_group_law_compile_honours_the_cap(tmp_path, monkeypatch):
    """The two-letter table behind the group law (2**2 words on Heisenberg)
    is refused under a cap of 3; a document algebra is built afresh, so its
    group law is compiled in this call, by the fold of the path's segments
    into its --csv waypoints (the certificate itself adds its central
    stage and runs no group product on Heisenberg)."""
    doc = tmp_path / "algebra.json"
    doc.write_text(json.dumps(HEISENBERG_DOC))
    monkeypatch.setenv("CARNOT_CERT_CAP", "3")
    result = invoke([
        "--algebra", str(doc), "--csv", str(tmp_path / "waypoints.csv"),
        "path", "--target", "1,0,1",
    ])
    assert result.exit_code == 3
    assert result.stderr == "error: beta table workload 2**2 exceeds cap 3\n"


def test_cap_does_not_set_the_enumeration_cap(tmp_path, monkeypatch):
    """A radius-2 ball of the integer Heisenberg lattice has more than 10
    elements; the work cap does not bound the enumeration."""
    lat = tmp_path / "lattice.json"
    lat.write_text(json.dumps(LATTICE_DOC))
    monkeypatch.setenv("CARNOT_CERT_CAP", "10")
    result = invoke(["systole", "--lattice", str(lat), "--radius", "2"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    "argv",
    [
        ["popp", "gram"],
        ["constants"],
        ["adjust", "--target", "1,0,1"],
        ["path", "--target", "1,0,1"],
        ["box-verify", "--samples", "1"],
    ],
)
def test_algebra_is_a_global_flag_only(argv):
    result = invoke(argv + ["--algebra", "heisenberg"])
    assert result.exit_code == 2
    assert "unrecognized arguments: --algebra heisenberg" in result.stderr


HEISENBERG = ["--algebra", "heisenberg"]

# the argument-parsing contract of main(argv): argv -> exit code; "{dir}"
# stands for an existing directory
# The error line of each usage error, as argparse printed it.
CHOICES = "(choose from 'algebra', 'popp', 'constants', 'adjust', 'path', 'box-verify', 'systole', 'bch')"
ARGV_CONTRACT = [
    pytest.param(HEISENBERG + ["path", "--target", "-1/2,1,1"], 0, None, id="dash-value-path"),
    pytest.param(HEISENBERG + ["adjust", "--target", "-1/2,1,1"], 0, None, id="dash-value-adjust"),
    pytest.param(HEISENBERG + ["path", "--target=-1/2,1,1"], 0, None, id="dash-value-joined"),
    pytest.param(["--seed", "-3"] + HEISENBERG + ["constants"], 0, None, id="negative-seed"),
    pytest.param(["--seed", "-3"] + HEISENBERG + ["box-verify", "--samples", "1"], 2,
                 "carnotcert: error: --seed must be >= 0 for box-verify", id="negative-seed-box-verify"),
    pytest.param(["--help"], 0, None, id="help"),
    pytest.param(["constants", "--help"], 0, None, id="command-help"),
    pytest.param(["--out", "{dir}"] + HEISENBERG + ["constants"], 2,
                 "carnotcert: error: argument --out: '{dir}' is a directory", id="out-dir"),
    pytest.param(["--csv", "{dir}"] + HEISENBERG + ["path", "--target", "1,0,1"], 2,
                 "carnotcert: error: argument --csv: '{dir}' is a directory", id="csv-dir"),
    pytest.param([], 2, "carnotcert: error: the following arguments are required: COMMAND", id="no-command"),
    pytest.param(["--algebra", "engel"], 2,
                 "carnotcert: error: the following arguments are required: COMMAND", id="algebra-alone"),
    pytest.param(["frobnicate"], 2,
                 f"carnotcert: error: argument COMMAND: invalid choice: 'frobnicate' {CHOICES}", id="unknown-command"),
    pytest.param(["popp", "frobnicate"], 2,
                 "carnotcert popp: error: argument COMMAND: invalid choice: 'frobnicate' (choose from 'gram')",
                 id="unknown-subcommand"),
    pytest.param(HEISENBERG + ["box-verify", "--samples", "abc"], 2,
                 "carnotcert box-verify: error: argument --samples: invalid int value: 'abc'", id="samples-abc"),
    pytest.param(HEISENBERG + ["box-verify", "--samples", "-1"], 2,
                 "carnotcert: error: --samples must be >= 0", id="samples-negative"),
    pytest.param(HEISENBERG + ["box-verify"], 2,
                 "carnotcert box-verify: error: the following arguments are required: --samples",
                 id="samples-missing"),
    pytest.param(["--seed", "x"] + HEISENBERG + ["constants"], 2,
                 "carnotcert: error: argument --seed: invalid int value: 'x'", id="seed-x"),
    pytest.param(["bch", "tables", "--kind", "delta", "--k", "3"], 2,
                 "carnotcert bch tables: error: argument --kind: invalid choice: 'delta' (choose from 'beta', 'gamma')",
                 id="kind-delta"),
    pytest.param(["bch", "tables", "--kind", "beta", "--k", "3"], 2,
                 "carnotcert: error: --n is required for beta tables", id="beta-without-n"),
    pytest.param(["bch", "tables", "--kind", "gamma", "--k", "3"], 2,
                 "carnotcert: error: --j is required for gamma tables", id="gamma-without-j"),
    pytest.param(HEISENBERG + ["constants", "extra"], 2,
                 "carnotcert: error: unrecognized arguments: extra", id="extra-positional"),
    pytest.param(["constants", "--algebra", "heisenberg"], 2,
                 "carnotcert: error: unrecognized arguments: --algebra heisenberg", id="algebra-after-command"),
    pytest.param(["constants"], 2, "carnotcert: error: no algebra given (use --algebra)", id="no-algebra"),
    pytest.param(["algebra", "check"], 2,
                 "carnotcert: error: give a spec path or builtin token", id="check-without-spec"),
    pytest.param(HEISENBERG + ["adjust"], 2,
                 "carnotcert adjust: error: the following arguments are required: --target", id="target-missing"),
    pytest.param(HEISENBERG + ["adjust", "--target"], 2,
                 "carnotcert adjust: error: argument --target: expected one argument", id="target-without-value"),
    pytest.param(HEISENBERG + ["adjust", "--target", "1", "--layer", "x"], 2,
                 "carnotcert adjust: error: argument --layer: invalid int value: 'x'", id="layer-x"),
    pytest.param(["systole", "--lattice", "{}", "--radius", "0"], 2,
                 "carnotcert: error: --radius must be >= 1", id="radius-zero"),
    pytest.param(["--mode", "float"] + HEISENBERG + ["constants"], 2,
                 f"carnotcert: error: argument COMMAND: invalid choice: '--mode' {CHOICES}", id="mode-float"),
    pytest.param(["--alg", "engel", "constants"], 2,
                 f"carnotcert: error: argument COMMAND: invalid choice: '--alg' {CHOICES}", id="abbreviated-algebra"),
    pytest.param(["algebra", "check", "heisenberg:1", "engel"], 2,
                 "carnotcert: error: unrecognized arguments: engel", id="check-two-specs"),
    pytest.param(["--seed"] + HEISENBERG + ["constants"], 2,
                 "carnotcert: error: argument --seed: expected one argument", id="seed-before-option"),
    pytest.param(HEISENBERG + ["constants", "--help=x"], 2,
                 "carnotcert constants: error: argument -h/--help: ignored explicit argument 'x'",
                 id="help-with-value"),
]


@pytest.mark.parametrize("argv,code,error", ARGV_CONTRACT)
def test_argument_parsing_contract(tmp_path, argv, code, error):
    """Each argv exits with its code; a usage error prints nothing on stdout
    and ends stderr with its own ``error:`` line, and a command that runs
    prints one JSON report."""
    result = invoke([str(tmp_path) if a == "{dir}" else a for a in argv])
    assert result.exit_code == code, result.output
    if code == 2:
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == error.replace("{dir}", str(tmp_path))
    elif "--help" not in argv:
        assert json.loads(result.stdout)["command"] in argv


MALFORMED_BUILTIN_TOKENS = [
    "heisenberg:x",
    "heisenberg:1.5",
    "free_nilpotent:a,2",
    "free_nilpotent:2,,3",
    "free_nilpotent:2,3,",
    "heisenberg:",
]


@pytest.mark.parametrize("token", MALFORMED_BUILTIN_TOKENS)
def test_malformed_builtin_token_is_a_parse_error(token):
    """A builtin name with parameters that are not name[:int(,int)*] exits
    2 with one ``error:`` line naming the token, and ``algebra check``
    reports it as a ParseError payload, exit 2."""
    result = invoke(["--algebra", token, "constants"])
    assert result.exit_code == 2
    assert type(result.exception) is SystemExit
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert repr(token) in lines[0]
    assert "Traceback" not in result.stderr
    result = invoke(["algebra", "check", token])
    assert result.exit_code == 2
    payload = _payload(result)
    assert payload["failure"] == "ParseError" and repr(token) in payload["detail"]
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("token", ["heisenberg:1,2", "heisenberg:1,2,3"])
def test_heisenberg_with_extra_parameters_exits_2(token):
    """heisenberg takes at most one parameter: a token with more is refused
    as UnsupportedParams, exit 2, not read as heisenberg(1)."""
    result = invoke(["--algebra", token, "constants"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "at most one parameter" in result.stderr
    assert "Traceback" not in result.stderr
    result = invoke(["algebra", "check", token])
    assert result.exit_code == 2
    assert _payload(result)["failure"] == "UnsupportedParams"


def test_readme_commands_run(tmp_path, monkeypatch):
    """Every ``carnotcert`` line of README's command block exits 0, with
    README's algebra and lattice examples as the documents it names."""
    readme_path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme_path, encoding="utf-8") as fh:
        readme = fh.read()
    blocks = readme.split("```")[1::2]
    documents = [json.loads(b[len("json"):]) for b in blocks if b.startswith("json")]
    algebra_doc = next(d for d in documents if "brackets" in d)
    lattice_doc = next(d for d in documents if "generators" in d)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_algebra.json").write_text(json.dumps(algebra_doc))
    (tmp_path / "lattice.json").write_text(json.dumps(lattice_doc))
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        if block.startswith("bash")
        for line in block.splitlines()
        if line.startswith("carnotcert ")
    ]
    assert len(commands) >= 10
    for argv in commands:
        result = invoke(argv[1:])
        assert result.exit_code == 0, (argv, result.output)


def test_readme_library_sketch_runs():
    """README's library sketch runs as written, and ``from carnotcert
    import *`` binds exactly the package's ``__all__``."""
    import carnotcert

    readme_path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme_path, encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library sketch", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(sketch, "README.md", "exec"), {})
    assert len(out.getvalue().splitlines()) == 2
    namespace: dict = {}
    exec("from carnotcert import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(carnotcert.__all__)


def test_certificate_failure_exit_code(monkeypatch):
    from carnotcert import cli_reports
    from carnotcert.errors import CertificateFailure

    def sabotage(*args, **kwargs):
        raise CertificateFailure("injected")

    monkeypatch.setattr(cli_reports, "certified_dcc_upper", sabotage)
    result = invoke(
        ["--algebra", "heisenberg", "box-verify", "--samples", "1"]
    )
    assert result.exit_code == 4


def test_box_verify_bound_over_one_is_reported_then_fails(monkeypatch):
    """A sampled bound over 1 still prints its report, once, and then
    exits 4 naming the bound."""
    from carnotcert import cli_reports

    monkeypatch.setattr(
        cli_reports, "certified_dcc_upper", lambda alg, metric, vec: (None, 1.5)
    )
    result = invoke(["--algebra", "heisenberg", "box-verify", "--samples", "2"])
    assert result.exit_code == 4
    assert result.stdout.count('"command": "box-verify"') == 1
    payload = _payload(result)
    assert payload["all_within_unit"] is False and payload["max_bound"] == 1.5
    assert payload["histogram_counts"][20] == 2
    assert result.stderr.splitlines()[-1].startswith(
        "error: sampled bound 1.5 exceeds 1 at ["
    )


# each error class and the exit code the command line ends with
ERROR_EXIT_CODES = [
    ("ParseError", 2),
    ("SingularBasis", 2),
    ("CapExceeded", 3),
    ("ExplosionGuard", 3),
    ("RecursionFailure", 4),
    ("CertificateFailure", 4),
]


@pytest.mark.parametrize("name,code", ERROR_EXIT_CODES)
def test_error_class_exit_code(monkeypatch, name, code):
    """A command ends with the exit code of the error it raised, as an
    ``error:`` line or, from ``algebra check``, as a failure payload."""
    from carnotcert import cli_reports, errors

    def fail(*args, **kwargs):
        raise getattr(errors, name)("injected")

    monkeypatch.setattr(cli_reports, "global_constants", fail)
    result = invoke(["--algebra", "heisenberg", "constants"])
    assert result.exit_code == code
    assert result.stderr == "error: injected\n"
    monkeypatch.setattr(cli_reports, "resolve_algebra", fail)
    result = invoke(["algebra", "check", "heisenberg"])
    assert result.exit_code == code
    assert _payload(result)["failure"] == name


def test_unexpected_exception_exit_code(monkeypatch):
    from carnotcert import cli_reports

    def underflow(*args, **kwargs):
        raise ZeroDivisionError("0.0 cannot be raised to a negative power")

    monkeypatch.setattr(cli_reports, "global_constants", underflow)
    result = invoke(["--algebra", "heisenberg", "constants"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr == (
        "error: ZeroDivisionError: 0.0 cannot be raised to a negative power\n"
    )


# a 14-coordinate target: free_nilpotent:2,5 and free_nilpotent:3,3 both
# have dimension 14
DEEP_TARGET = "1/3,-1/2,2/5,1/7,1,2,3,4,5,6,7,8,9,1/9"

# sha256 of json.dumps(payload, sort_keys=True), recorded before the group
# law was compiled; a change to any of these reports must say why.  The
# adjust pins were re-recorded when each stage's norm_value became the float
# of its exact layer form, not of a product of rounded row norms.
PINNED_PAYLOADS = [
    pytest.param(
        ["--algebra", "engel", "adjust", "--target", "1/3,-1/2,2/5,1/7"],
        "d1493599dc3dee746f225284eadc67e5d6f6a087107f9fd1019dea9628eb6bc6",
        id="engel-adjust",
    ),
    pytest.param(
        [
            "--algebra",
            "free_nilpotent:2,4",
            "path",
            "--target",
            "1/3,2/7,5/11,1/5,-3/7,2/9,1/4,-1/6",
        ],
        "5beb0b1f8d11020329cf0ff0be56c574ee248d79da92d662c997851de4f95d54",
        id="free_nilpotent-2-4-path",
    ),
    # box-verify pins re-recorded when samples moved to a power-of-two grid
    # relative to each layer radius: only max_bound, histogram_counts and
    # worst_target moved, and nonzero_layer_counts was added
    pytest.param(
        ["--algebra", "engel", "box-verify", "--samples", "50"],
        "c7aa51fe9622c6567b68a0d613482ebfdaf27f46fd1412505775966c4b27a086",
        id="engel-box-verify",
    ),
    pytest.param(
        ["--algebra", "engel", "systole", "--lattice", "{lattice}", "--radius", "4"],
        "55ac07f576e713e53afa130042c27a606becf6e2d31890d2e240456b5a6328cf",
        id="engel-systole",
    ),
    # recorded before products, quadratic forms and the ball order were
    # evaluated in integers over a common denominator
    pytest.param(
        ["--algebra", "engel", "systole", "--lattice", "{lattice_7_5}", "--radius", "4"],
        "ef4a8022d8ec55b953da34c7578766c863523f69cc1d2ca9926b401423f1c1e1",
        id="engel-7-5-systole",
    ),
    # adjust --layer prints the row fields alpha, scale and vectors, which
    # are derived from each row's word, sign and scale
    pytest.param(
        ["--algebra", "engel", "adjust", "--target", "2,-3", "--layer", "1"],
        "ad0489492b13555fc672649f8ad6cefb088d1fded0926c03a6dafedc205e0b67",
        id="engel-adjust-layer1",
    ),
    pytest.param(
        ["--algebra", "engel", "adjust", "--target", "3/5", "--layer", "2"],
        "ff48dcc3af660e85f8b11a3482675357e54471a38f23487ed17f0611eadb121f",
        id="engel-adjust-layer2",
    ),
    pytest.param(
        ["--algebra", "engel", "adjust", "--target", "-2/7", "--layer", "3"],
        "0a93456f361fd3d5e764d8213377c4ec79e7f8ca6533939f311e72a12e8fb89b",
        id="engel-adjust-layer3",
    ),
    pytest.param(
        [
            "--algebra",
            "free_nilpotent:2,3",
            "adjust",
            "--target",
            "1/3,-2/5",
            "--layer",
            "3",
        ],
        "ac35b48f719da1f0a456e3eef75d239d7fba0faccb474f912e315ac77983d559",
        id="free_nilpotent-2-3-adjust-layer3",
    ),
    # a zero target of layer 2: every row has alpha 0, however it is found
    pytest.param(
        ["--algebra", "engel", "adjust", "--target", "0", "--layer", "2"],
        "0efe463e721781af122e3bdeb4989067a202b8cc52422d5f7512c2c4239e111c",
        id="engel-adjust-layer2-zero",
    ),
    pytest.param(
        ["--algebra", "free_nilpotent:2,4", "adjust", "--target", "0", "--layer", "2"],
        "1c6d1f9d9a588cb91d470d0c5892df7bed54535eda5fd9de75b8e8dd54e9fb29",
        id="free_nilpotent-2-4-adjust-layer2-zero",
    ),
    # the deepest radical towers: step 5, three generators, and box
    # sampling at step 4; the paths recorded before the radical ring kept
    # integer numerators over one denominator, the box-verify pin when
    # samples moved to a power-of-two grid
    pytest.param(
        ["--algebra", "free_nilpotent:2,5", "path", "--target", DEEP_TARGET],
        "57be73f7f207a9a262969a87e111f1f1f0a5590f48c403eef566b4b72845ea52",
        id="free_nilpotent-2-5-path",
    ),
    pytest.param(
        ["--algebra", "free_nilpotent:3,3", "path", "--target", DEEP_TARGET],
        "e2cac3c3d89a3ad52fc11b117499af547599617a99c0f57bef4ae86476f88533",
        id="free_nilpotent-3-3-path",
    ),
    pytest.param(
        ["--algebra", "free_nilpotent:2,4", "box-verify", "--samples", "20"],
        "e038ca260f04c793cfbaea69879657ad9040880690ba4a6b4908c008f8a0f81b",
        id="free_nilpotent-2-4-box-verify",
    ),
    # recorded before the path wrapper was folded into the adjusted tuple:
    # a radical-length path, and the one full-tuple adjust pin with radical
    # stage lengths
    pytest.param(
        ["--algebra", "heisenberg", "path", "--target", "0,0,1"],
        "45febe3b3a5ccc9cb7ef5c3344e9f40ae27c8b78bfb885027b165442b9d0a26a",
        id="heisenberg-path-center",
    ),
    pytest.param(
        [
            "--algebra",
            "free_nilpotent:2,4",
            "adjust",
            "--target",
            "1/3,2/7,5/11,1/5,-3/7,2/9,1/4,-1/6",
        ],
        "b14dd1c9dd169e21629db5c12312f197816255ed6fbc4f13bfb2cb2b4665348b",
        id="free_nilpotent-2-4-adjust",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_PAYLOADS)
def test_pinned_report_payloads(tmp_path, argv, digest):
    lattices = {
        "{lattice}": ENGEL_LATTICE_DOC,
        "{lattice_7_5}": ENGEL_7_5_LATTICE_DOC,
    }
    for placeholder, doc in lattices.items():
        lat = tmp_path / f"{placeholder[1:-1]}.json"
        lat.write_text(json.dumps(doc))
        argv = [str(lat) if a == placeholder else a for a in argv]
    result = invoke(argv)
    assert result.exit_code == 0
    text = json.dumps(_payload(result), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_import_does_not_load_numpy():
    """CLI start-up imports neither click nor dataclasses (which pulls in
    inspect, ast and dis) nor numpy, and box-verify runs without numpy:
    it samples through random.Random."""
    import carnotcert

    src = os.path.dirname(os.path.dirname(carnotcert.__file__))
    code = (
        "import sys, carnotcert.cli_reports as cli\n"
        "loaded = {'click', 'dataclasses', 'numpy'} & set(sys.modules)\n"
        "code = cli.main(['--algebra', 'engel', 'box-verify', '--samples', '3'])\n"
        "loaded |= {'numpy'} & set(sys.modules)\n"
        "sys.exit(', '.join(sorted(loaded)) or code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    assert payload["samples"] == 3 and payload["all_within_unit"] is True


def test_commands_load_no_argument_parser():
    """``constants``, ``path`` and ``bch tables`` run in a fresh interpreter
    without argparse, or the gettext and locale that argparse loads for its
    messages."""
    import carnotcert

    src = os.path.dirname(os.path.dirname(carnotcert.__file__))
    code = (
        "import contextlib, io, sys\n"
        "from carnotcert.cli_reports import main\n"
        "for argv in (['--algebra', 'engel', 'constants'],\n"
        "             ['--algebra', 'engel', 'path', '--target', '1/3,-1/2,2/5,1/7'],\n"
        "             ['bch', 'tables', '--kind', 'beta', '--n', '2', '--k', '3']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "sys.exit(', '.join(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))) or None)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv,names", [
    (["--help"], ["algebra check", "popp gram", "constants", "adjust", "path",
                  "box-verify", "systole", "bch tables",
                  "--algebra", "--seed", "--out", "--csv", "-h, --help"]),
    (["adjust", "--help"], ["--target", "--layer", "-h, --help"]),
], ids=["top", "adjust"])
def test_help_lists_commands_and_options(argv, names):
    """Help goes to stdout and exits 0, naming every command and option of
    its level."""
    result = invoke(argv)
    assert result.exit_code == 0 and result.stderr == ""
    assert result.stdout.startswith("usage: carnotcert ")
    for name in names:
        assert name in result.stdout, name


# -- the process entry, run as a shell runs it -----------------------------------
# console_main ends the process with os._exit after flushing both streams;
# main(argv) returns the code to sys.exit, so the interpreter tears down.

ENTRIES = {
    "console_main": ["-m", "carnotcert.cli_reports"],
    "main": [
        "-c",
        "import sys\n"
        "from carnotcert.cli_reports import main\n"
        "sys.exit(main(sys.argv[1:]))\n",
    ],
}
ENGEL_TARGET = "1/3,-1/2,2/5,1/7"


def _entry_env(**extra):
    import carnotcert

    src = os.path.dirname(os.path.dirname(carnotcert.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return env | extra


def _run_entry(entry, argv, env, stdout=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, *ENTRIES[entry], *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
    )


def _stderr_without_elapsed(stderr: bytes) -> list[bytes]:
    return [ln for ln in stderr.splitlines() if not ln.startswith(b"elapsed: ")]


@pytest.mark.parametrize("argv,env,code", [
    (["--algebra", "engel", "--out", "{out}", "--csv", "{csv}",
      "path", "--target", ENGEL_TARGET], {}, 0),
    (["--algebra", "engel", "constants"], {}, 0),
    (["--algebra", "engel", "constants"], {"CARNOT_CERT_CAP": "abc"}, 2),
    (["constants", "--algebra", "engel"], {}, 2),
    (["--help"], {}, 0),
], ids=["path-out-csv", "constants", "bad-cap", "usage-error", "help"])
def test_console_entry_matches_main(tmp_path, argv, env, code):
    """Both entries give one exit code, one stdout and one stderr (but for
    the elapsed time); --out holds stdout, and the CSV is the in-process
    one."""
    procs = {}
    for entry in ENTRIES:
        files = {"{out}": tmp_path / f"{entry}.json", "{csv}": tmp_path / f"{entry}.csv"}
        args = [str(files.get(a, a)) for a in argv]
        procs[entry] = _run_entry(entry, args, _entry_env(**env))
    console, reference = procs["console_main"], procs["main"]
    assert console.returncode == reference.returncode == code, console.stderr
    assert console.stdout == reference.stdout
    assert _stderr_without_elapsed(console.stderr) == _stderr_without_elapsed(reference.stderr)
    if "{out}" in argv:
        out, csv = tmp_path / "console_main.json", tmp_path / "console_main.csv"
        assert console.stdout and out.read_bytes() == console.stdout
        in_process = tmp_path / "in_process.csv"
        result = invoke(["--algebra", "engel", "--csv", str(in_process),
                         "path", "--target", ENGEL_TARGET])
        assert result.exit_code == 0
        assert csv.read_bytes() == in_process.read_bytes()
        assert result.stdout.encode("utf-8") == console.stdout


@pytest.mark.parametrize("unbuffered,code,last_line", [
    (False, 120, b"BrokenPipeError: [Errno 32] Broken pipe"),
    (True, 1, b"error: [Errno 32] Broken pipe"),
], ids=["buffered", "unbuffered"])
def test_console_entry_on_a_closed_stdout(unbuffered, code, last_line):
    """A report written to a pipe with no reader: buffered, the failed flush
    falls back to sys.exit and the interpreter reports it at shutdown;
    unbuffered, print fails inside main, which reports the I/O error."""
    env = _entry_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    for entry in ENTRIES:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_entry(entry, ["--algebra", "engel", "constants"], env,
                              stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == code, (entry, proc.stderr)
        assert proc.stderr.splitlines()[-1] == last_line, entry


def test_console_entry_without_a_stdout():
    """Started with file descriptor 1 closed, sys.stdout is None: the
    report goes nowhere, the flush fails, and both entries exit 0."""
    for entry in ENTRIES:
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, *ENTRIES[entry],
             "--algebra", "engel", "constants"],
            stderr=subprocess.PIPE, env=_entry_env(), timeout=60,
        )
        assert proc.returncode == 0, (entry, proc.stderr)
        assert proc.stderr.startswith(b"elapsed: "), entry


def test_box_verify_samples_more_than_the_identity_at_step_five():
    """ROADMAP item 2, done: the step-5 box radii of layers 2..4 are below
    1e-33, and every layer of every sample is nonzero."""
    result = invoke([
        "--algebra", "free_nilpotent:2,5", "--seed", "0",
        "box-verify", "--samples", "20",
    ])
    assert result.exit_code == 0, result.stderr
    payload = _payload(result)
    assert payload["max_bound"] > 0 and payload["all_within_unit"] is True
    assert payload["nonzero_layer_counts"] == [20] * 5


# -- confirmed certificate defects, one strict xfail each ------------------------
# A fix makes its test pass, and must drop the marker.

ENGEL_IDENTITY_BASIS = ENGEL_LATTICE_DOC["malcev_basis"]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1(a): scalars._magnitude takes the sign of a radical "
    "expression from its float value, so a cube root of a negative value is made",
)
def test_crafted_engel_target_roots_only_positive_values():
    """z4 = 5/66 + (5/22)**(3/2) to 25 digits: the stage-3 coordinate is
    about -3.2e-27, and its float value 0.0.  Every radical the command
    creates is recorded as it is made."""
    with created_radicals() as created:
        invoke([
            "--algebra", "engel", "path", "--target",
            "1/3,2/7,5/11,115065998289222939070557/625000000000000000000000",
        ])
    assert created
    for rad in created:
        assert decimal_value(rad.value) > 0, (rad.uid, rad.degree)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: the covolume is read from the declared "
    "malcev_basis, which nothing ties to the generators",
)
def test_covolume_is_that_of_the_generated_lattice(tmp_path):
    """e1, e2 and e4/3 generate a lattice of covolume 1/6; the declared
    coordinate basis has covolume 1/2."""
    doc = {
        "name": "engel-e4-third",
        "algebra": "engel",
        "generators": [
            ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "1/3"],
        ],
        "malcev_basis": ENGEL_IDENTITY_BASIS,
    }
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(doc))
    result = invoke(
        ["--algebra", "engel", "systole", "--lattice", str(lat), "--radius", "2"]
    )
    assert result.exit_code == 0, result.stderr
    assert abs(_payload(result)["covolume"] - 1 / 6) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: a declared malcev_basis is not checked "
    "against the generators",
)
def test_malcev_basis_outside_the_generated_lattice_is_refused(tmp_path):
    """e1 and e2 generate e4 itself, so 5 e4 declares the wrong top layer;
    read as given it prints covolume 2.5 and satisfied: true."""
    doc = dict(
        ENGEL_LATTICE_DOC,
        name="engel-5e4",
        malcev_basis=ENGEL_IDENTITY_BASIS[:3] + [["0", "0", "0", "5"]],
    )
    lat = tmp_path / "lat.json"
    lat.write_text(json.dumps(doc))
    result = invoke(
        ["--algebra", "engel", "systole", "--lattice", str(lat), "--radius", "2"]
    )
    assert result.exit_code == 2


ADJUST_FIXTURES = [
    "heisenberg:1",
    "heisenberg:2",
    "engel",
    "free_nilpotent:2,3",
    "free_nilpotent:3,3",
    "free_nilpotent:2,4",
    "free_nilpotent:2,5",
]


@pytest.mark.parametrize("token", ADJUST_FIXTURES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_adjust_layer_rows_are_the_full_tensor_preimage(token, data):
    """``adjust --layer j`` prints all d1**j rows of the full tensor in lex
    order of words, zero rows included, although the set holds one row per
    pair word: row w has alpha = (M^T G v)_w, from the metric's tensor map
    and Gram (:func:`oracle_utils.full_preimage_oracle`), its sign, the
    scale |alpha|**(1/j) and the entries (sign s e_{w1}, s e_{w2}, ...).
    On layer 1 the target row is followed by d1 - 1 zero rows."""
    alg = resolve_algebra(token)
    metric = build_popp(alg)
    d1 = alg.dims[0]
    layer = data.draw(st.integers(1, alg.step), label="layer")
    coords = data.draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=9),
            min_size=alg.dims[layer - 1],
            max_size=alg.dims[layer - 1],
        ),
        label="coords",
    )
    target = ",".join(str(c) for c in coords)
    result = invoke(
        ["--algebra", token, "adjust", "--target", target, "--layer", str(layer)]
    )
    assert result.exit_code == 0, result.output
    rows = _payload(result)["rows"]
    assert len(rows) == d1**layer
    zero = [0.0] * alg.dim
    if layer == 1:
        head = [float(c) for c in coords] + zero[d1:]
        assert rows[0]["vectors"][0]["coords_float"] == head
        assert rows[0]["sign"] == (1 if any(coords) else 0)
        for row in rows[1:]:
            assert (row["word"], row["alpha"], row["sign"], row["scale"]) == (None, None, 0, 0.0)
            assert [v["coords_float"] for v in row["vectors"]] == [zero]
        return
    oracle = full_preimage_oracle(metric, layer, coords)
    for row, word, alpha in zip(rows, tensor_words(d1, layer), oracle):
        assert row["word"] == [letter + 1 for letter in word]
        assert Fraction(row["alpha"]) == alpha
        sign = (alpha > 0) - (alpha < 0)
        assert row["sign"] == sign
        scale = float(abs(alpha)) ** (1 / layer)
        assert math.isclose(row["scale"], scale, rel_tol=1e-12)
        entries = []
        for pos, letter in enumerate(word):
            entry = list(zero)
            if sign:
                entry[letter] = row["scale"] if pos or sign > 0 else -row["scale"]
            entries.append(entry)
        assert [v["coords_float"] for v in row["vectors"]] == entries
