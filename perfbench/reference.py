"""High-precision reference for the two-branch equilibrium income law.

Written from the closed form alone, apart from `incomedist.model`:

    P(m) = c * exp(-(m0/T') * atan(m/m0)) * (1 + (m/m0)^2)^(-(a'+1)/2),

with (T', a', c) = (T, alpha, c_lo) below m1 and (T1, alpha1, c_hi) at and
above it, c_hi/c_lo fixed by continuity at m1 and the pair by normalization
over [m_init, inf).  Integrals run in w = atan(m0/m), the angle measured from
the tail end, where P(m) dm = c m0 exp(-k (pi/2 - w)) sin(w)^(a'-1) dw with
k = m0/T'.  Tail probabilities are then integrals over [0, w(m)] with w(m)
computed directly, so no difference of nearly equal angles is ever formed,
and the further substitution v = w^a' makes the integrand smooth at the
heavy-tail end (a' < 1).  mpmath's unbounded exponent range takes
exp(k pi/2) for any k.  The model module integrates in u = pi/2 - w with
scipy's adaptive quadrature and double precision.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 20


class ReferenceLaw:
    """Normalized two-branch law evaluated with mpmath at `DPS` digits."""

    def __init__(self, T, T1, alpha, alpha1, m0, m1, m_init):
        with mp.workdps(DPS):
            self.m0, self.m1, self.m_init = mp.mpf(m0), mp.mpf(m1), mp.mpf(m_init)
            self.k_lo, self.k_hi = self.m0 / mp.mpf(T), self.m0 / mp.mpf(T1)
            self.a_lo, self.a_hi = mp.mpf(alpha), mp.mpf(alpha1)
            x1 = self.m1 / self.m0
            # continuity: c_lo e^{-k_lo u1} (1+x1^2)^{-(a+1)/2} = c_hi e^{-k_hi u1} (1+x1^2)^{-(a1+1)/2}
            log_ratio = ((self.k_hi - self.k_lo) * mp.atan(x1)
                         + (self.a_hi - self.a_lo) / 2 * mp.log1p(x1 * x1))
            self.ratio = mp.exp(log_ratio)
            self.w1 = self._w(self.m1)
            high = self._branch(self.k_hi, self.a_hi, 0, self.w1)
            low = self._branch(self.k_lo, self.a_lo, self.w1, self._w(self.m_init))
            z = self.m0 * (low + self.ratio * high)
            self.c_lo = 1 / z
            self.c_hi = self.ratio / z

    def _w(self, m):
        return mp.atan(self.m0 / mp.mpf(m))

    @staticmethod
    def _branch(k, a, w_lo, w_hi):
        """Integral of exp(-k (pi/2 - w)) sin(w)^(a-1) over [w_lo, w_hi].

        In v = w^a the integrand (1/a) exp(-k (pi/2 - w)) (sin(w)/w)^(a-1) is
        smooth at w = 0 for every a > 0; without the substitution tanh-sinh
        loses seven digits on sin(w)^-0.8.
        """
        if w_hi <= w_lo:
            return mp.mpf(0)
        half_pi = mp.pi / 2
        inv = 1 / a

        def g(v):
            w = v ** inv
            sinc = mp.sin(w) / w if w else mp.mpf(1)
            return inv * mp.exp(k * (w - half_pi)) * sinc ** (a - 1)

        return mp.quad(g, [w_lo ** a, w_hi ** a])

    def pdf(self, m) -> float:
        with mp.workdps(DPS):
            m = mp.mpf(m)
            x = m / self.m0
            lo = m < self.m1
            c, k, a = (self.c_lo, self.k_lo, self.a_lo) if lo else (self.c_hi, self.k_hi, self.a_hi)
            return float(c * mp.exp(-k * mp.atan(x)) * (1 + x * x) ** (-(a + 1) / 2))

    def ccdf(self, m) -> float:
        """P(income > m)."""
        return self.ccdf_many([m])[0]

    def ccdf_many(self, ms) -> list[float]:
        """CCDF at ascending incomes, one quadrature per gap between neighbours."""
        ms = [float(m) for m in ms]
        if any(b < a for a, b in zip(ms, ms[1:])):
            raise ValueError("incomes must be ascending")
        out = [0.0] * len(ms)
        with mp.workdps(DPS):
            acc = mp.mpf(0)  # mass above the previous (larger) income
            upper = None
            for i in range(len(ms) - 1, -1, -1):
                m = mp.mpf(ms[i])
                w = self._w(m)
                w_prev = mp.mpf(0) if upper is None else self._w(upper)
                acc += self._mass(w_prev, w)
                out[i] = float(acc)
                upper = m
        return out

    def _mass(self, w_lo, w_hi):
        """Probability of incomes whose angle lies in [w_lo, w_hi]."""
        total = mp.mpf(0)
        if w_lo < self.w1:
            total += self.c_hi * self.m0 * self._branch(self.k_hi, self.a_hi, w_lo, min(w_hi, self.w1))
        if w_hi > self.w1:
            total += self.c_lo * self.m0 * self._branch(self.k_lo, self.a_lo, max(w_lo, self.w1), w_hi)
        return total


def relative_error(got: float, want: float) -> float:
    if want == 0.0:
        return math.inf if got != 0.0 else 0.0
    return abs(got / want - 1.0)
