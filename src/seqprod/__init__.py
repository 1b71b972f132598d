"""Sequential products on quantum effects.

Implements the Lüders product A^{1/2} B A^{1/2} and the phased family
A^{1/2} A^{it} B A^{-it} A^{1/2} on effects, machine-verifies the
sequential-product axioms S1-S5, demonstrates that the two products differ
(so the Lüders form is not the only sequential product), and builds the
trace-preserving Kraus channels the phased product induces.
"""

# Each module's __all__ is its public API; the package republishes them.
from .linalg import *  # noqa: F403
from .effects import *  # noqa: F403
from .axioms import *  # noqa: F403
from .channels import *  # noqa: F403

__version__ = "0.1.0"
