"""Numerical workbench for dilation and analytic model constructions.

Builds and verifies, at finite truncation scale: defect operators and
Moebius calculus for doubly commuting contraction tuples, canonical
isometric dilations onto truncated vector-valued Hardy spaces over the
Hilbert multidisk, characteristic functions, Beurling-type identities,
generator extraction, and Jordan-block tensor quotient modules.
"""

__version__ = "0.1.0"

from . import charfn, checks, contraction, dilation, generators  # noqa: F401
from . import hardy, linops, submodules  # noqa: F401
from .errors import HardyModelError  # noqa: F401
