"""``python -m lzero``: the command line of the ``lzero`` script."""

from .cli import main

raise SystemExit(main())
