"""Literal-definition oracles that the library's fast routes are tested against."""

from math import gcd

import numpy as np

from ddradar.errors import BNotCoprime
from ddradar.modmath import mod_inv, phases_to_complex
from ddradar.symplectic import SL2Element


def gdaft_kernel(g: SL2Element) -> np.ndarray:
    """Dense GDAFT matrix K[n, n1] with ring-exact half-integer exponents."""
    mod = g.mod
    if gcd(g.b, mod.MN) != 1:
        raise BNotCoprime(f"GDAFT needs gcd(b, MN) = 1, got b = {g.b}, MN = {mod.MN}")
    mn = mod.MN
    half_binv = mod.inv2 * mod_inv(g.b, mn) % mn
    n = np.arange(mn, dtype=np.int64)
    dn2 = g.d * (n * n % mn) % mn             # d*n^2 along rows
    an2 = g.a * (n * n % mn) % mn             # a*n1^2 along columns
    cross = (-2 * np.outer(n, n)) % mn        # -2*n*n1
    idx = 2 * (half_binv * ((dn2[:, None] + an2[None, :] + cross) % mn) % mn)
    return phases_to_complex(idx, mod) / np.sqrt(mod.MN)


def sl2_matrix(g: SL2Element) -> np.ndarray:
    """Dense matrix of sl2_apply(g, .): one kernel, or two around the smallest shear."""
    mod = g.mod
    mn = mod.MN
    if gcd(g.b, mn) == 1:
        return gdaft_kernel(g)
    x0 = next(v for v in range(1, mn) if gcd(v, mn) == 1 and gcd(g.b + v * g.d, mn) == 1)
    shear = SL2Element(mod, 1, x0, 0, 1)
    return gdaft_kernel(shear.inverse()) @ gdaft_kernel(shear.matmul(g))
