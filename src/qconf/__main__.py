"""``python -m qconf``: the command line of :mod:`qconf.cli`."""

import sys

from .cli import main

sys.exit(main())
