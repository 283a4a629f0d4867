"""``python -m lgmult``: the same command line as the ``lgmult`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
