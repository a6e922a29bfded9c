"""``python -m kerr_qlink``: the kerr-qlink command line."""

from .cli.main import main

raise SystemExit(main())
