"""``python -m tensorprim``: the ``tensorprim`` command line, also from a
source checkout that was never installed."""

import sys

from .cli import main

sys.exit(main())
