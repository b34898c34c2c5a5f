"""The cli-oneshot workload: the real carnotcert CLI, one child process per
command, one command at a time.

Started as a script, it runs one CLI command under the tracer instead:

    PYTHONPATH=src python3 perfbench/cli_oneshot.py --algebra engel constants

The report goes to stdout as usual; one line ``TRACE <json>`` with the spans
and counters is appended to stderr.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

TIMEOUT_S = 60
TRACE_MARK = "TRACE "

# Commands that fail today (ZeroDivisionError in global_constants for
# d1 = 3 at step 4 and d1 = 2 at step 5).  They run once per run, outside
# the timed passes, and their outcome is reported by type.
PROBES = [
    ["--algebra", "free_nilpotent:3,4", "constants"],
    ["--algebra", "free_nilpotent:2,5", "constants"],
]

SETUP_COMMAND = ["algebra", "check", "heisenberg:1"]

# Interpreter entries: the real CLI, the CLI under the tracer (this file),
# and a bare interpreter, whose peak RSS is the base of mem_growth_mb.
CLI = ["-m", "carnotcert.cli_reports"]
TRACED = [__file__]
BARE = ["-c", "pass"]


def commands(seed: int) -> list[list[str]]:
    """One pass: fixed commands plus seeded adjust and path on engel."""
    rng = random.Random(seed)

    def target() -> str:
        return ",".join(str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                        for _ in range(4))

    seeded = ["--algebra", "engel", "--seed", str(seed)]
    return [
        SETUP_COMMAND,
        ["--algebra", "heisenberg:1", "constants"],
        ["--algebra", "engel", "constants"],
        ["--algebra", "free_nilpotent:2,4", "constants"],
        ["--algebra", "engel", "popp", "gram"],
        ["bch", "tables", "--kind", "beta", "--n", "3", "--k", "4"],
        ["bch", "tables", "--kind", "gamma", "--j", "2", "--k", "4"],
        seeded + ["adjust", f"--target={target()}"],
        seeded + ["path", f"--target={target()}"],
    ]


def run_command(argv: list[str], env: dict, cwd, entry: list[str] = CLI):
    """Run one command in a fresh child, by default through the real CLI.

    Returns (exit code, stdout bytes, stderr text, wall seconds, peak RSS of
    the child in KiB).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *entry, *argv], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(TIMEOUT_S, proc.kill)
    killer.start()
    errors: list[bytes] = []
    drain = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    drain.start()
    out = proc.stdout.read()
    drain.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, errors[0].decode(errors="replace"), wall, usage.ru_maxrss


def failure_type(code: int, stderr: str) -> str:
    """The exception type of a failed command, else its exit code."""
    lines = [ln for ln in stderr.splitlines() if ln and not ln.startswith(TRACE_MARK)]
    last = lines[-1] if lines else ""
    name = last.split(":")[0]
    if name.isidentifier() and not last.startswith("error"):
        return name
    return f"exit{code}"


def check_report(argv: list[str], text: bytes) -> str | None:
    """None when the report is well formed and consistent, else why not."""
    try:
        report = json.loads(text)
        payload = report["payload"]
        if "path" in argv:
            if report["command"] != "path" or not payload["endpoint_matches_target"]:
                return "path endpoint does not match"
            if payload["bound"] != payload["length"]:
                return "bound differs from length"
            if not payload["lower_bound"] <= payload["bound"]:
                return "lower bound above bound"
        elif "adjust" in argv:
            if not payload["reconstruction_exact"]:
                return "adjust reconstruction is not exact"
            if not all(c["sum_exact"] for c in payload["stage_conditions"]):
                return "adjust bracket sums are not exact"
        elif "constants" in argv:
            if min(payload["radii_float"]) <= 0:
                return "constants radii are not positive"
        elif argv[:2] == ["algebra", "check"]:
            if payload["ok"] is not True:
                return "algebra check failed"
        elif "tables" in argv:
            if not payload["entries"]:
                return "coefficient table is empty"
        elif not payload["layers"]:
            return "popp gram has no layers"
    except Exception as exc:  # any report the checks cannot read is wrong
        return f"malformed report: {exc!r}"
    return None


def traced_main(argv: list[str]) -> int:
    """Run one CLI command in this process under the tracer."""
    import tracing
    import worker

    t0 = time.perf_counter()
    import carnotcert.cli_reports as cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    code = 0
    try:
        with tracer.root(0):
            cli.main.main(args=argv, prog_name="carnotcert")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.restore()
    sys.stdout.flush()
    trace = {
        "import_s": import_s,
        "spans": tracer.summary(),
        "rows": tracer.rows(),
        "counters": worker.program_counters(tracer.metrics) | tracer.counters(),
    }
    print(TRACE_MARK + json.dumps(trace), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(traced_main(sys.argv[1:]))
