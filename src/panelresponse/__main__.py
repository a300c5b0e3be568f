"""The command line's entry point: ``python -m panelresponse`` and the ``panelresponse`` script.

It imports no numpy itself.  Each BLAS thread variable the caller left unset
is set to ``"1"`` before :mod:`panelresponse.cli` loads numpy, so a large
panel's numbers do not depend on how many threads BLAS would pick.
"""

import os
import sys

from . import _BLAS_THREAD_VARS


def main() -> int:
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from . import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
