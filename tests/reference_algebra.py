"""Reference 9x9 L operators that the tests check the program's kernels against.

The program never builds these matrices: it applies L as cross products of
the rows of Y and inverts it in closed form.  Here they are assembled block
by block from smat of the rows of Y, so a test can multiply, invert or take
the determinant of the operators the paper writes down.
"""

from dataclasses import dataclass, field

import numpy as np

from korn_kit.algebra import smat


@dataclass(frozen=True)
class LOperators:
    """The four row-built 9x9 operators of a 3x3 matrix; full = skew + sym."""

    diag: np.ndarray
    skew: np.ndarray
    sym: np.ndarray
    full: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "full", self.skew + self.sym)


def build_l_operators(y) -> LOperators:
    """Assemble L_diag, L_skew, L_sym and L = L_skew + L_sym from Y.

    The blocks are smat of the rows of Y placed in the fixed sparsity
    pattern; L is symmetric by construction and L = L_skew + L_sym holds
    exactly because ``full`` is formed as that sum.
    """
    y = np.asarray(y, dtype=float)
    s = [smat(y[..., n, :]) for n in range(3)]
    batch = y.shape[:-2]

    diag = np.zeros(batch + (9, 9), dtype=float)
    skew = np.zeros(batch + (9, 9), dtype=float)
    sym = np.zeros(batch + (9, 9), dtype=float)
    for n in range(3):
        diag[..., 3 * n:3 * n + 3, 3 * n:3 * n + 3] = -s[n]
    skew[..., 0:3, 3:6] = -s[2]
    skew[..., 0:3, 6:9] = s[1]
    skew[..., 3:6, 0:3] = s[2]
    sym[..., 3:6, 6:9] = -s[0]
    sym[..., 6:9, 0:3] = -s[1]
    sym[..., 6:9, 3:6] = s[0]
    return LOperators(diag=diag, skew=skew, sym=sym)
