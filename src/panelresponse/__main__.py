"""The command line's entry point: ``python -m panelresponse`` and the ``panelresponse`` script.

It makes the process's two process-wide choices, both before
:mod:`panelresponse.cli` loads numpy, and imports no numpy itself:

* each BLAS thread variable the caller left unset is set to ``"1"``, so a
  large panel's numbers do not depend on how many threads BLAS would pick;
* ``_hashlib`` is marked unavailable, so ``hashlib`` serves every algorithm
  from CPython's built-in modules and OpenSSL's libcrypto, which
  ``numpy.random``'s ``secrets`` import would map to hash nothing, stays out.

A program that imports :mod:`panelresponse` or calls ``cli.main`` itself
keeps its process as it set it up.
"""

import os
import sys
from importlib.util import find_spec

from . import _BLAS_THREAD_VARS

#: The built-in modules that ``hashlib`` serves every algorithm from without OpenSSL
_BUILTIN_HASHES = (
    ("_md5", "_sha1", "_sha2", "_blake2", "_sha3") if sys.version_info >= (3, 12)
    else ("_md5", "_sha1", "_sha256", "_sha512", "_blake2", "_sha3")
)


def main() -> int:
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if all(map(find_spec, _BUILTIN_HASHES)):
        # synth's peak RSS 38.1 -> 34.6 MB without libcrypto
        sys.modules.setdefault("_hashlib", None)
    from . import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
