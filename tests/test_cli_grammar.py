"""The command line's one-pass parser against the argparse tree it replaced.

Hypothesis draws argv from the grammar's own words and from what it must
refuse: the global options as ``--x v`` and ``--x=v``, every command word
and command option, values that start with ``-`` or are empty, junk or an
existing directory, ``-h``, ``--help``, ``--help=x``, ``--``, ``-x``,
``--mode``, the abbreviation ``--alg``, stray positionals, and options
repeated or given after the command.  For every draw both parsers give the
same run function and option values, or exit with the same code and the
same last stderr line; only help and usage text may differ.

Two argparse quirks are left out of the draw on purpose: ``--x=--`` gave
the option the value ``[]`` (argparse drops a ``--`` from an option's
arguments), and ``-h=h...`` read each leading ``h`` as one more ``-h`` (so
``-h=h`` printed the help, and ``-h=hx`` refused ``'x'``).  The one-pass
parser reads ``--x=--`` as the value ``--`` and refuses any ``-h=value``
as an explicit argument ``value`` to ``--help``.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carnotcert.cli_reports import _parse_args
from oracle_utils import argparse_oracle

GLOBAL = ["--algebra", "--seed", "--out", "--csv"]
COMMAND_OPTIONS = [
    "--target", "--layer", "--samples", "--lattice", "--radius", "--kind",
    "--n", "--j", "--k",
]
WORDS = [
    "algebra", "check", "popp", "gram", "constants", "adjust", "path",
    "box-verify", "systole", "bch", "tables",
]
VALUES = ["-1/2,1,1", "-3", "abc", "", "{dir}", "3", "0", "beta", "gamma", "engel", "heisenberg:1"]
ODD = ["-h", "--help", "--help=x", "--", "-x", "--mode", "--alg", "stray", "-"]


@pytest.fixture(scope="module")
def oracle():
    return argparse_oracle()


def _option(names):
    """An option alone, with its value as the next token, or joined."""
    return st.one_of(
        st.sampled_from(names).map(lambda name: [name]),
        st.tuples(st.sampled_from(names), st.sampled_from(VALUES)).map(list),
        st.tuples(st.sampled_from(names), st.sampled_from(VALUES)).map(lambda t: ["=".join(t)]),
    )


token_groups = st.one_of(
    _option(GLOBAL),
    _option(COMMAND_OPTIONS),
    st.sampled_from(WORDS).map(lambda word: [word]),
    st.sampled_from(VALUES + ODD).map(lambda token: [token]),
)
argv_lists = st.lists(token_groups, max_size=8).map(lambda groups: sum(groups, []))


def _outcome(parse, argv):
    """("ok", the namespace's attributes) or ("exit", code, last stderr line)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            namespace = parse(list(argv))
        except SystemExit as exc:
            lines = err.getvalue().splitlines()
            return "exit", exc.code, lines[-1] if lines else ""
    return "ok", vars(namespace)


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(argv=argv_lists)
@example(argv=["--algebra", "engel", "path", "--target", "-1/2,1,1"])
@example(argv=["--seed", "-3", "--algebra", "engel", "constants"])
@example(argv=["--algebra", "engel", "adjust", "--target", "--layer", "2"])
@example(argv=["algebra", "check", "--", "--help"])
@example(argv=["algebra", "check", "x", "--", "y"])
@example(argv=["algebra", "--", "check"])
@example(argv=["--algebra", "engel", "--"])
@example(argv=["bch", "tables", "--k", "3", "--kind", "beta", "--n", "2", "--n", "4"])
@example(argv=["systole", "--radius", "2", "stray", "--lattice", "x.json", "--", "--radius"])
def test_parser_matches_argparse(oracle, tmp_path_factory, argv):
    directory = str(tmp_path_factory.getbasetemp())
    argv = [token.replace("{dir}", directory) for token in argv]
    assert _outcome(_parse_args, argv) == _outcome(oracle.parse_args, argv)

