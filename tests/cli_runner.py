"""Run the carnotcert command line in-process, as its console script does.

:func:`invoke` calls ``sys.exit(main(argv))`` with stdout and stderr
captured, so a test sees the exit code, both streams, and the
``SystemExit`` of a nonzero exit, just as a shell would.  Any other
exception escapes to the test: the command line lets none through.
"""

from __future__ import annotations

import contextlib
import io
import sys
from types import SimpleNamespace

from carnotcert.cli_reports import main


def invoke(argv) -> SimpleNamespace:
    """exit_code, stdout, stderr, output (both streams) and exception (the
    SystemExit of a nonzero exit, else None) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            sys.exit(main(list(argv)))
        except SystemExit as exc:
            exit_ = exc
    code = exit_.code or 0
    stdout, stderr = out.getvalue(), err.getvalue()
    return SimpleNamespace(exit_code=code, stdout=stdout, stderr=stderr,
                           output=stdout + stderr,
                           exception=exit_ if code else None)
