"""Exact arithmetic in Z[zeta_e]: integer coefficient vectors mod Phi_e.

Values are tuples of Python ints of length deg(Phi_e); zeta is the residue
of x.  Character values are sums of roots of unity, so they are algebraic
integers and never need denominators.  Phi_e is monic, so reduction mod
Phi_e stays in Z.  Complex conjugation is the Galois map zeta ->
zeta^(e-1).  All equality tests are exact.
"""

from __future__ import annotations

from functools import lru_cache

from .verdicts import CertificateError
from .zpoly import exact_quo


@lru_cache(maxsize=None)
def cyclotomic_poly(e):
    """Integer coefficient tuple of Phi_e, lowest degree first."""
    # x^e - 1 divided by the product of Phi_d over proper divisors d of e
    poly = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            poly = exact_quo(poly, cyclotomic_poly(d))
            if poly is None:
                raise CertificateError("non-exact polynomial division")
    return tuple(poly)


class CycloContext:
    """Arithmetic context for Z[zeta_e]."""

    def __init__(self, e):
        self.e = e
        self.phi = cyclotomic_poly(e)
        self.dim = len(self.phi) - 1
        # reduction table: zeta^k as a vector for k in 0..e-1
        self._pow = []
        cur = [0] * self.dim
        cur[0] = 1
        for _ in range(e):
            self._pow.append(tuple(cur))
            cur = self._shift(cur)

    def _shift(self, vec):
        """Multiply by zeta with reduction mod Phi_e."""
        carry = vec[self.dim - 1]
        out = [0] + list(vec[: self.dim - 1])
        if carry:
            for i in range(self.dim):
                out[i] -= carry * self.phi[i]
        return out

    def from_rational(self, q):
        out = [0] * self.dim
        out[0] = q
        return tuple(out)

    def conj(self, a):
        """Complex conjugation: zeta^k -> zeta^(e-k)."""
        poly = [0] * self.e
        for i, ai in enumerate(a):
            poly[-i % self.e] = ai
        return self.from_root_multiplicities(poly)

    def from_root_multiplicities(self, mults):
        """sum over s of mults[s] * zeta^s, for an integer sequence of any length.

        This is the reduction mod Phi_e of the polynomial with coefficients
        `mults`; every product and conjugate goes through it.
        """
        out = list(mults[: self.dim]) + [0] * (self.dim - len(mults))
        for k in range(self.dim, len(mults)):
            c = mults[k]
            if c:
                vec = self._pow[k % self.e]
                for t in range(self.dim):
                    out[t] += c * vec[t]
        return tuple(out)
