"""Constructing isometries and checking them numerically.

Two constructions are available: measure transport (match cumulative measure
between equal-passport spaces, then carry functions along) and the weighting
map U(f) = f/h (trade the plain norm for the h-weighted one).  Both preserve
norms exactly on step functions; verify_isometry hammers them with seeded
random samples and reports the worst deviation.
"""

import math
import random

from logspaces import (
    Component,
    Internal,
    MeasureSpace,
    StepFunction,
    density,
    interval_space,
    lift,
    log_norm,
    monotone_transport,
    render_transport,
    transport_between_spaces,
    uniform_density,
    verify_isometry,
    weighting_isometry,
)
from logspaces.sampling import random_density, random_equal_passport_pair

# Transport [0,1) with density 1 onto [0,2) with density 0.5: T(x) = 2x.
src = interval_space(0, 1, 1.0)
dst = interval_space(0, 2, 0.5)
tmap = transport_between_spaces(src, dst)
print(render_transport(tmap))

f = StepFunction.from_pieces(src, [(0, 0.0, 0.5, 3)])
g = lift(tmap, f)
print("f pieces:     ", [(p.start, p.stop, p.coef.real) for p in f.pieces[0]])
print("lifted pieces:", [(p.start, p.stop, p.coef.real) for p in g.pieces[0]])
print("norms:", log_norm(f, src).value, "=", log_norm(g, dst).value)

# Unbounded carriers transport too; doubling the density halves positions.
h1 = MeasureSpace((Component(density([(0.0, math.inf, 1.0)])),))
h2 = MeasureSpace((Component(density([(0.0, math.inf, 2.0)])),))
print("\nhalf-line transport:")
print(render_transport(transport_between_spaces(h1, h2)))

# A component may split its mass over several target components.
wide = MeasureSpace((Component(density([(0.0, 3.0, 1.0)])),))
two = MeasureSpace((Component(density([(0.0, 1.0, 1.0)])), Component(density([(0.0, 1.0, 2.0)]))))
print("\none component onto two:")
print(render_transport(transport_between_spaces(wide, two)))

# The weighting map: external norm of f = h-weighted norm of f/h, exactly.
unit = interval_space(0, 1)
h = (density([(0.0, 0.5, 2.0), (0.5, 1.0, 4.0)]),)
two_fn = StepFunction.from_pieces(unit, [(0, 0.0, 1.0, 2)])
u = weighting_isometry(two_fn, h)
print("\nU(f) pieces:", [(p.start, p.stop, p.coef.real) for p in u.pieces[0]])
print(
    "external ||f|| =", log_norm(two_fn, unit).value,
    " internal ||U f|| =", log_norm(u, unit, Internal(h)).value,
    " (log 3 =", math.log(3), ")",
)

# Numerical verification over seeded random step functions.
report = verify_isometry(tmap, src, dst, samples=1000, seed=42)
print("\ntransport verification:", report)

rng = random.Random(7)
space, partner = random_equal_passport_pair(rng)
t2 = transport_between_spaces(space, partner)
print("random pair verification:", verify_isometry(t2, space, partner, 1000, 1))

hd = random_density(rng, space)
print("weighting verification:  ", verify_isometry(hd, space, space, 1000, 2))
