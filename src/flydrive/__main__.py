"""`python -m flydrive ...` runs the command-line front end, `flydrive.cli`."""

import sys

from .cli import main

sys.exit(main())
