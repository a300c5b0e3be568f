"""The command line's entry point: ``python -m panelresponse`` and the ``panelresponse`` script.

It makes the process's three process-wide choices, all before
:mod:`panelresponse.cli` loads numpy and before any thread exists, and
imports no numpy itself:

* each BLAS thread variable the caller left unset is set to ``"1"``, so a
  large panel's numbers do not depend on how many threads BLAS would pick;
* ``_hashlib`` is marked unavailable, so ``hashlib`` serves every algorithm
  from CPython's built-in modules and OpenSSL's libcrypto, which
  ``numpy.random``'s ``secrets`` import would map to hash nothing, stays out;
* on glibc, unless the caller set ``MALLOC_ARENA_MAX`` or the
  ``glibc.malloc.arena_max`` tunable, malloc is capped at one arena, so a
  null's worker threads allocate from the main heap instead of each
  keeping an arena of its own resident; on any other libc nothing is done.

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

#: glibc's ``mallopt`` parameter for the arena cap, from ``<malloc.h>``
_M_ARENA_MAX = -8


def _glibc() -> bool:
    """Whether this process's C library is glibc."""
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


def _one_malloc_arena() -> None:
    """Cap glibc's malloc at one arena, unless the caller chose a cap."""
    tunables = os.environ.get("GLIBC_TUNABLES", "").split(":")
    if not _glibc() or "MALLOC_ARENA_MAX" in os.environ or any(
            t.partition("=")[0] == "glibc.malloc.arena_max" for t in tunables):
        return
    import ctypes  # numpy imports it anyway

    # glibc reads the variable only as the process starts: the call applies
    # it, so every thread that allocates later shares the main arena
    os.environ["MALLOC_ARENA_MAX"] = "1"
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def main() -> int:
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if all(map(find_spec, _BUILTIN_HASHES)):
        # synth's peak RSS 38.1 -> 34.6 MB without libcrypto
        sys.modules.setdefault("_hashlib", None)
    # the 10,000-sample rotational null's peak RSS 38.3 -> 35.9 MB
    _one_malloc_arena()
    from . import cli

    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
