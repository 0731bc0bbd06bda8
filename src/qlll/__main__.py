"""`python -m qlll ...` runs the qlll command line."""

import sys

from .cli import main

sys.exit(main())
