"""``python -m repro.testing`` — see :mod:`repro.testing.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
