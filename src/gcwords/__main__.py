"""`python -m gcwords` runs the command line, as the `gcwords` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
