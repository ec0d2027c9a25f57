"""python -m peristation: the command line, as the installed peristation command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
