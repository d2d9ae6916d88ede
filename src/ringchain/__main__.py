"""``python -m ringchain``: the command-line interface (see ``ringchain.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
