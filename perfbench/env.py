"""Process set-up shared by the benchmark and its tests.

Import this module before numpy.  It pins the BLAS thread count, so that
timings do not depend on how many threads a BLAS library picks, and puts the
checkout's ``src`` directory first on the import path, so that the package
measured is the one in this checkout and never an installed copy.
"""

import os
import sys

BLAS_THREADS = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


class MissingPackageError(RuntimeError):
    """The checkout has no frdecomp sources to measure."""


def use_checkout_sources():
    """Import frdecomp from ROOT/src; raise MissingPackageError otherwise."""
    if not os.path.isdir(os.path.join(SRC, "frdecomp")):
        raise MissingPackageError(f"no frdecomp package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import frdecomp

    where = os.path.dirname(os.path.abspath(frdecomp.__file__))
    if where != os.path.join(SRC, "frdecomp"):
        raise MissingPackageError(f"frdecomp imported from {where}, not {SRC}")
    return frdecomp
