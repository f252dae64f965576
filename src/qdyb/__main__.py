"""``python -m qdyb``: the command-line front end, :func:`qdyb.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
