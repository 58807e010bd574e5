"""``python -m permwordle``: the command-line interface, as ``permwordle``."""

import sys

from .cli import main

sys.exit(main())
