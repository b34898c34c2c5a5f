"""Every function of ``carnotcert`` is reached by some command, or is on the
allow-list below with its reason.

``reachability.py`` runs its command list in a fresh interpreter, with the
profiler installed before ``carnotcert`` is imported: in this process,
earlier tests have already filled the caches whose builders the commands
must be seen to call.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

ALLOWED = {
    "adjustment.AdjustedTuple.__repr__": "debugging",
    "adjustment.HorizontalSet.__repr__": "debugging",
    "certificates.BoundPolynomial.__repr__": "debugging",
    "graded_algebra.GVec.__repr__": "debugging",
    "graded_algebra.GradedAlgebra.__repr__": "debugging",
    "lattice_systole.Lattice.__repr__": "debugging",
    "scalars.RadExpr.__repr__": "debugging",
    "scalars.RadExpr.terms": "perfbench/tracing.py counts an expression's terms through it",
    "scalars.RadExpr.__eq__": (
        "no command compares two irrational values; library callers with an "
        "irrational target, and the tests, do"
    ),
    "scalars.RadExpr.__pow__": (
        "_accumulate_product calls it in a three-level radical tower "
        "(test_scalars.py, test_power_of_a_tower_value_reduces_in_the_product)"
    ),
}

LINE = re.compile(r"^(\S+) \((\S+)\) (\d+) lines$")


def test_every_function_is_reached_or_allowed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "reachability.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    unreached = {
        m.group(1) for m in map(LINE.match, proc.stdout.splitlines()) if m
    }
    assert proc.stdout.splitlines()[-1].startswith(f"{len(unreached)} of ")
    extra = sorted(unreached - ALLOWED.keys())
    assert not extra, f"unreached and not allow-listed: {extra}"
    stale = sorted(ALLOWED.keys() - unreached)
    assert not stale, f"allow-listed but reached or gone: {stale}"
