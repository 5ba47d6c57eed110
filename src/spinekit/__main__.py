"""`python -m spinekit`: the command-line interface."""

import sys

from .report_cli import main

if __name__ == "__main__":
    sys.exit(main())
