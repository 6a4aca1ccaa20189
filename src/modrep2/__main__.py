"""python -m modrep2: the command line driver of modrep2.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
