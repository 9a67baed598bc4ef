"""The trace constant of the unit disk among radial functions, by shooting.

For constant p and r, the radial u with u(1) = 1 that minimizes
int_0^1 rho (|u'|^p + |u|^p) drho solves (rho u'^(p-1))' = rho u^(p-1) with
u'(0) = 0.  With w = rho u'^(p-1), integration by parts makes that integral
w(1) u(1), so the quotient of the Sobolev norm over the boundary L^r norm is

    T_rad = (2 pi)^(1/p - 1/r) (w(1) / u(1)^(p-1))^(1/p),

whatever the scale of u.  The solve starts at rho0 from the series
u = 1, w = rho0^2 / 2.  For r = p the minimizer over all u is radial (it is
a simple, positive Steklov eigenfunction of the p-Laplacian); for r != p,
that T_rad is the disk's constant rests on numerical evidence only.

    from radial_reference import radial_trace_constant   # scripts/ on sys.path
"""

import math

from scipy.integrate import solve_ivp


def radial_trace_constant(p, r, rho0=1e-8, rtol=1e-12):
    def rhs(rho, y):
        u, w = y
        return [(w / rho) ** (1.0 / (p - 1.0)), rho * u ** (p - 1.0)]

    # atol sits far below w(rho0), so rtol alone sets the steps
    sol = solve_ivp(rhs, (rho0, 1.0), [1.0, 0.5 * rho0**2], method="DOP853",
                    rtol=rtol, atol=1e-30)
    u1, w1 = sol.y[:, -1]
    return (2.0 * math.pi) ** (1.0 / p - 1.0 / r) * (w1 / u1 ** (p - 1.0)) ** (1.0 / p)
