"""``python -m hopfcheck``: the same entry point as the ``hopfcheck`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
