"""The command-line entry point: ``python -m cauchycert`` and ``cauchycert``."""

import os
import sys


def main() -> int:
    # numpy's OpenBLAS starts a spinning worker per extra CPU when it loads,
    # and no command has BLAS work to share (the one BLAS call is affine_nd's
    # matrix-vector product).  This must run before numpy is imported (the
    # entry imports it with a computing command's handlers); a value the
    # user set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .entry import main as entry_main

    return entry_main()


if __name__ == "__main__":
    sys.exit(main())
