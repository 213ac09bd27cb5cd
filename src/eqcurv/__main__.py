"""``python -m eqcurv``: the same command line as the ``eqcurv`` script."""

import sys

from .cli import main

sys.exit(main())
