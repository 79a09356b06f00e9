"""The process entry point: ``python -m typicality_lab`` and the ``typicality-lab`` script."""

import gc
import sys

from . import cli


def main() -> None:
    """Run :func:`typicality_lab.cli.main` on ``sys.argv`` and exit with its status."""
    try:
        status = cli.main()
    finally:
        gc.freeze()  # frozen objects are skipped by the collections run at interpreter shutdown
    sys.exit(status)


if __name__ == "__main__":
    main()
