"""Run a tool's ``main`` so that output it cannot write ends it with one
line on stderr and exit status 1, not a traceback: a reader who closed the
pipe early (``tool | head -1``), a full device (``tool > /dev/full``) or
no stdout at all (``tool >&-``).

Each tool calls ``sys.exit(stdout_errors.run(main))`` when run as a script.
``lsqroots.cli`` keeps the same rule, with the same errno values, for the
``lsqroots`` command; the tools cannot import it, since they load the
package of whichever checkout they are given.
"""

from __future__ import annotations

import errno
import os
import sys
from pathlib import Path

# The errno of a write to stdout that cannot be done, as lsqroots.cli has it.
UNWRITABLE = frozenset((errno.EPIPE, errno.ENOSPC, errno.EBADF))


def run(main, *args) -> int:
    """``main(*args)``, its output flushed; 1 if stdout took no more."""
    tool = Path(sys.argv[0]).name
    try:
        code = main(*args)
        # print drops its output silently where there is no stdout, so a
        # missing stdout is found here, after the tool's own usage errors.
        if sys.stdout is None:
            raise OSError(errno.EBADF, "stdout is closed")
        sys.stdout.flush()
    except OSError as err:
        if err.errno not in UNWRITABLE:
            raise
        if sys.stdout is not None:
            # What could not be written stays in the buffer: point stdout at
            # the null device, so that the flush at exit prints no
            # "Exception ignored".
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"{tool}: cannot write output: {err.strerror}", file=sys.stderr)
        return 1
    return code
