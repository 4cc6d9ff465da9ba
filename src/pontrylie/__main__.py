"""``python -m pontrylie``: the command-line front end (see ``pontrylie.cli``)."""

import sys

from .cli import main

sys.exit(main())
