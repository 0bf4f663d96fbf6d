"""The scalar recurrence x_j = phi(x_{j-1}) driving backbone sweeps.

Pendant paths turn the tree sweep into iteration of the rational map
phi(t) = alpha + gamma/t with alpha = 1 + s^2 - lam and gamma = -s^2.
When lam > (1 + |s|)^2 the map has two negative fixed points: theta
(attracting) and theta' (repelling), and every orbit that never hits
zero ends up at theta. The caterpillar generator lives inside the
window (theta' - delta, theta'), where delta = s^2*lam/(lam - 1) is the
amount one pendant leaf adds to a backbone value.
"""

from .scalar import DomainError, Scalar


class RecurrenceParams:
    """Derived constants of the map for a fixed pair (s, lam).

    theta and theta_prime are None when s is not adapted to lam, that is
    when lam <= (1 + |s|)^2; the two fixed points then collide or leave
    the real line and none of the orbit classification below applies.
    c1 = -gamma/alpha is the largest point of the null set (the
    preimages of zero), also None when not adapted.
    """

    __slots__ = (
        "s",
        "lam",
        "alpha",
        "gamma",
        "discriminant",
        "adapted",
        "theta",
        "theta_prime",
        "delta",
        "c1",
    )

    def __init__(self, s, lam, alpha, gamma, discriminant, adapted, theta, theta_prime, delta, c1):
        self.s = s
        self.lam = lam
        self.alpha = alpha
        self.gamma = gamma
        self.discriminant = discriminant
        self.adapted = adapted
        self.theta = theta
        self.theta_prime = theta_prime
        self.delta = delta
        self.c1 = c1

    def __repr__(self):
        if self.adapted:
            return "RecurrenceParams(adapted, theta=%s, theta'=%s)" % (
                self.theta.to_decimal_string(12),
                self.theta_prime.to_decimal_string(12),
            )
        return "RecurrenceParams(not adapted)"


def recurrence_params(s, lam):
    """Constants of phi for the pair (s, lam); lam must exceed 1."""
    if not isinstance(s, Scalar):
        raise DomainError("s must be a Scalar")
    ctx = s.ctx
    lam = ctx.scalar(lam)
    if not lam > 1:
        raise DomainError("lam must be strictly greater than 1")
    s2 = s * s
    alpha = 1 + s2 - lam
    gamma = -s2
    disc = alpha * alpha + 4 * gamma
    adapted = lam > (1 + abs(s)) ** 2
    delta = s2 * lam / (lam - 1)
    if adapted:
        root = disc.sqrt()
        theta = (alpha - root).halved()
        theta_prime = (alpha + root).halved()
        c1 = -gamma / alpha
    else:
        theta = theta_prime = c1 = None
    return RecurrenceParams(s, lam, alpha, gamma, disc, adapted, theta, theta_prime, delta, c1)


def phi(params, t):
    """One step of the map. t = 0 is its pole."""
    if t.is_zero:
        raise DomainError("phi has a pole at t = 0")
    return params.alpha + params.gamma / t


class OrbitReport:
    """What happened to an orbit started at x1.

    behavior is one of the strings in OrbitReport.BEHAVIORS; limit is the
    fixed point the orbit is heading to (None for a null-set start);
    escape_step is the first index with a positive value, when the orbit
    entered from (theta', 0); converged tells whether the stopping
    tolerance was reached within max_steps.
    """

    BEHAVIORS = (
        "stays-at-theta",
        "stays-at-theta-prime",
        "hits-zero",
        "increases-to-theta",
        "decreases-to-theta",
        "crosses-positive-then-increases-to-theta",
        "starts-positive-then-increases-to-theta",
    )

    __slots__ = ("x1", "behavior", "steps", "limit", "escape_step", "converged", "step_count")

    def __init__(self, x1, behavior, steps, limit, escape_step, converged):
        assert behavior in self.BEHAVIORS
        self.x1 = x1
        self.behavior = behavior
        self.steps = steps
        self.limit = limit
        self.escape_step = escape_step
        self.converged = converged
        self.step_count = len(steps)

    def __repr__(self):
        return "OrbitReport(%s, steps=%d, converged=%r)" % (
            self.behavior,
            self.step_count,
            self.converged,
        )


def classify_orbit(params, x1, max_steps):
    """Iterate phi from x1 and name the trajectory's behavior.

    Needs adapted parameters. Iteration stops once |x_j - theta| falls
    below 10^-max(1, digits - 5) at the context's digits, or after
    max_steps. An exact zero anywhere marks x1 as a null-set point; the
    exact fixed points are recognized and returned without iterating.
    """
    if not params.adapted:
        raise DomainError("orbit classification needs s adapted to lam")
    ctx = params.s.ctx
    x1 = ctx.scalar(x1)
    theta, theta_prime = params.theta, params.theta_prime
    tol = ctx.power_of_ten(-max(1, ctx.digits - 5))
    if x1 == theta:
        return OrbitReport(x1, "stays-at-theta", [x1], theta, None, True)
    if x1 == theta_prime:
        return OrbitReport(x1, "stays-at-theta-prime", [x1], theta_prime, None, True)
    if x1.is_zero:
        return OrbitReport(x1, "hits-zero", [x1], None, None, False)
    if x1 < theta:
        behavior = "increases-to-theta"
    elif x1 < theta_prime:
        behavior = "decreases-to-theta"
    elif x1 < 0:
        behavior = "crosses-positive-then-increases-to-theta"
    else:
        behavior = "starts-positive-then-increases-to-theta"
    steps = [x1]
    escape_step = 0 if x1 > 0 else None
    x = x1
    converged = False
    for _ in range(int(max_steps)):
        x = phi(params, x)
        steps.append(x)
        if x.is_zero:
            return OrbitReport(x1, "hits-zero", steps, None, escape_step, False)
        if escape_step is None and x > 0:
            escape_step = len(steps) - 1
        if abs(x - theta) < tol:
            converged = True
            break
    return OrbitReport(x1, behavior, steps, theta, escape_step, converged)
