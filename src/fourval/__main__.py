"""``python -m fourval``: the ``fourval`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
