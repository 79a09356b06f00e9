"""The process entry point: ``python -m typicality_lab`` and the ``typicality-lab`` script."""

import gc
import os
import sys

from . import cli


def main() -> None:
    """Run :func:`typicality_lab.cli.main` on ``sys.argv`` and exit with its status."""
    try:
        status = cli.main()
    finally:
        gc.freeze()  # frozen objects are skipped by the collections run at interpreter shutdown
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except OSError:
                # The text a full disk or a closed pipe refused goes to the null device,
                # so the flush at shutdown neither reports it nor changes the exit status.
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(status)


if __name__ == "__main__":
    main()
