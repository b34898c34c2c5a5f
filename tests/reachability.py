"""Which functions of ``carnotcert`` no command reaches.

Runs a fixed list of command lines in-process through
``carnotcert.cli_reports.main`` under ``sys.setprofile``, and prints each
function defined in the package's sources that no command called, with its
line count, then the package's total line count.  Run it from the
repository root as

    PYTHONPATH=src python tests/reachability.py

It must run in a fresh interpreter, and it installs the profiler before
``carnotcert`` is imported: the package fills caches as it runs (the
``lru_cache``s, ``bch_engine._beta_cache``, ``algebra.group_law``), and a
build that an earlier caller already ran would look unreached.  It exits 1
when a command does not exit 0, since a failing command reaches less than
it should, or when a help or usage-error line of ``EXITS`` does not end
with its own code.  ``tests/test_reachability.py`` runs it and compares the
unreached functions with its allow-list.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile

ENGEL_INNER1 = {
    "name": "engel-inner1",
    "dims": [2, 1, 1],
    "brackets": [
        {"a": [1, 1], "b": [1, 2], "out": [{"layer": 2, "idx": 1, "coeff": "1"}]},
        {"a": [1, 1], "b": [2, 1], "out": [{"layer": 3, "idx": 1, "coeff": "1"}]},
    ],
    "inner1": [["4", "2"], ["2", "5"]],
}
HEISENBERG_LATTICE = {
    "name": "integer-heisenberg",
    "algebra": "heisenberg:1",
    "generators": [["1", "0", "0"], ["0", "1", "0"]],
    "malcev_basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}
ENGEL_7_5_LATTICE = {
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
DOCUMENTS = {
    "inner1.json": ENGEL_INNER1,
    "heisenberg_lattice.json": HEISENBERG_LATTICE,
    "engel_7_5.json": ENGEL_7_5_LATTICE,
}

ENGEL_TARGET = "1/3,-1/2,2/5,1/7"
FN24_TARGET = "1/3,2/7,5/11,1/5,-3/7,2/9,1/4,-1/6"

# Command lines; {dir} is a scratch directory holding DOCUMENTS.
COMMANDS = [
    ["--algebra", "engel", "path", "--target", ENGEL_TARGET],
    ["--algebra", "engel", "--csv", "{dir}/path.csv", "path", "--target", ENGEL_TARGET],
    ["--algebra", "free_nilpotent:2,4", "path", "--target", FN24_TARGET],
    ["--algebra", "heisenberg:2", "path", "--target", "1/3,-1/2,2/5,1/7,3/4"],
    ["--algebra", "{dir}/inner1.json", "path", "--target", ENGEL_TARGET],
    ["--algebra", "free_nilpotent:2,4", "adjust", "--target", FN24_TARGET],
    ["--algebra", "free_nilpotent:2,4", "adjust", "--target", "1/3,2/7", "--layer", "1"],
    ["--algebra", "heisenberg", "adjust", "--target", "1", "--layer", "2"],
    ["--algebra", "engel", "adjust", "--target", "-2/7", "--layer", "3"],
    ["--algebra", "free_nilpotent:2,4", "adjust", "--target", "1/3,2/7,-1/5", "--layer", "4"],
    ["--algebra", "engel", "--seed", "3", "box-verify", "--samples", "5"],
    ["--algebra", "free_nilpotent:2,5", "--seed", "0", "box-verify", "--samples", "2"],
    ["--algebra", "engel", "constants"],
    ["--algebra", "free_nilpotent:3,4", "constants"],
    ["--algebra", "engel", "popp", "gram"],
    ["--algebra", "{dir}/inner1.json", "popp", "gram"],
    ["bch", "tables", "--kind", "beta", "--n", "2", "--k", "3"],
    ["bch", "tables", "--kind", "gamma", "--j", "2", "--k", "3"],
    ["algebra", "check", "engel"],
    ["algebra", "check", "{dir}/inner1.json"],
    ["--algebra", "heisenberg", "--csv", "{dir}/systole.csv",
     "systole", "--lattice", "{dir}/heisenberg_lattice.json", "--radius", "4"],
    ["--algebra", "engel", "--csv", "{dir}/systole_7_5.csv",
     "systole", "--lattice", "{dir}/engel_7_5.json", "--radius", "4"],
]

# Command lines that end in SystemExit, with its code: help exits 0, and a
# usage error, refused by the parser or by a command, exits 2.
EXITS = [
    (["--help"], 0),
    (["bch", "tables", "--help"], 0),
    (["--algebra", "engel", "box-verify", "--samples", "x"], 2),
    (["constants"], 2),
]


def package_dir() -> str:
    """The directory of the ``carnotcert`` package on the path, found
    without importing it."""
    spec = importlib.util.find_spec("carnotcert")
    if spec is None or not spec.submodule_search_locations:
        raise SystemExit("carnotcert is not importable; run with PYTHONPATH=src")
    return os.path.realpath(spec.submodule_search_locations[0])


def functions(root: str) -> tuple[dict, int]:
    """({(file, first line): (qualified name, line count)} for every def in
    the package, decorators included, and the package's total line count)."""
    out: dict = {}
    total = 0

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = f"{prefix}{child.name}"
                out[path, first] = (f"{module}.{name}", child.end_lineno - first + 1)
                visit(child, path, module, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, f"{prefix}{child.name}.")
            else:
                visit(child, path, module, prefix)

    for filename in sorted(os.listdir(root)):
        if filename.endswith(".py"):
            path = os.path.join(root, filename)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            total += len(text.splitlines())
            visit(ast.parse(text), path, filename[: -len(".py")], "")
    return out, total


def run_commands(workdir: str) -> tuple[set, list]:
    """(the code objects called while the commands ran, the commands that
    did not exit with their code)."""
    called: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    for name, doc in DOCUMENTS.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    failed = []
    sys.setprofile(profile)
    try:
        from carnotcert.cli_reports import main

        for argv, expected in [(argv, 0) for argv in COMMANDS] + EXITS:
            argv = [arg.replace("{dir}", workdir) for arg in argv]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != expected:
                failed.append((argv, code, sink.getvalue()[-300:]))
    finally:
        sys.setprofile(None)
    return called, failed


def main() -> int:
    root = package_dir()
    defs, total = functions(root)
    with tempfile.TemporaryDirectory() as workdir:
        called, failed = run_commands(workdir)
    for argv, code, tail in failed:
        print(f"command exited {code}: {' '.join(argv)}\n{tail}", file=sys.stderr)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in called}
    unreached = sorted(
        (name, lines, f"{os.path.basename(path)}:{first}")
        for (path, first), (name, lines) in defs.items()
        if (path, first) not in reached
    )
    for name, lines, where in unreached:
        print(f"{name} ({where}) {lines} lines")
    held = sum(lines for _, lines, _ in unreached)
    print(f"{len(unreached)} of {len(defs)} functions unreached, holding {held} lines;"
          f" src/ has {total} lines")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
