"""Whether the numba package is importable.

No solver path uses numba; the projected extragradient loop lives in
``subproblem.peg_callable``.  The flag remains for tools that report the
numeric environment a run happened in.
"""

import importlib.util

HAS_NUMBA = importlib.util.find_spec("numba") is not None
