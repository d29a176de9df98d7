"""Limiting unipotent one-parameter flows of rescaled polynomial trajectories.

Given a trajectory map rescaled along a box family, ``compute_flow`` extracts
the critical exponent q, the Taylor order d, the limit matrices M_1..M_d and
the nilpotent generator of the limiting flow, all exactly.  The two-variable
variant ``twodim_flow`` extracts the large-x flow together with the box
exponent b that controls when the flow survives joint (x, y) expansion.

Everything symbolic is exact; the residual checks evaluate at high precision
because the quantities measured sit many orders of magnitude below the raw
matrix entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import mpmath
import numpy as np

from .errors import BoxflowError, DomainError, NilpotencyError
from .polyalg import NEG_INF, T_VAR, GenPoly, rational_mpf
from .polymatrix import PolyMatrix, adjugate

XI_VAR = "xi"

_MAX_ORDER = 512  # safety cap; the iteration terminates long before this
_RESIDUAL_DPS = 60  # decimal digits of the residual evaluations


# ---------------------------------------------------------------------------
# box rescaling
# ---------------------------------------------------------------------------


def _require_identity_at_origin(
    theta_map: PolyMatrix, map_vars: Sequence[str], show_value: bool = False
) -> None:
    at_zero = theta_map.substitute({v: GenPoly.zero() for v in map_vars})
    if at_zero != PolyMatrix.identity(theta_map.dim):
        got = f", got {at_zero}" if show_value else ""
        raise DomainError(f"map must equal the identity at the origin{got}")


def rescale(
    theta_map: PolyMatrix,
    lam: Sequence[Fraction],
    map_vars: Sequence[str],
) -> PolyMatrix:
    """Substitute x_i -> a_i * t^{lambda_i}, turning a trajectory over a box
    family into a single map in (a1..ak, t).

    Requires the map to take the identity at the origin.
    """
    lam = [Fraction(v) for v in lam]
    if len(lam) != len(map_vars):
        raise DomainError("one box exponent per map variable is required")
    if any(v <= 0 for v in lam):
        raise DomainError("box exponents must be positive")
    _require_identity_at_origin(theta_map, map_vars, show_value=True)
    bindings = {
        v: GenPoly.monomial(1, {f"a{i + 1}": 1, T_VAR: l})
        for i, (v, l) in enumerate(zip(map_vars, lam))
    }
    return theta_map.substitute(bindings)


def normalize_exponents(lam: Sequence[Fraction], exponents=None):
    """Rescale box exponents so each exceeds 1 and at least one t-exponent
    of the rescaled map, c * sum(lambda_i e_i) over the exponent vectors e
    of its monomials (``exponents``; without them, the c * lambda_i), is
    not an integer, returning (c, c*lambda).  When the first c of the
    lambda_i rule works, both rules return it: an earlier candidate makes
    every c lambda_i, so every c * sum(lambda_i e_i), an integer.

    Candidates are scanned on dyadic grids of increasing fineness: first
    1, 3/2, 2, 5/2, ... then the new quarter-integer values 5/4, 7/4, ...,
    then eighth-integers, and so on; the first candidate satisfying both
    conditions wins.  Reparameterizing the family parameter by the 1/c
    power leaves the realized boxes unchanged.
    """
    lam = [Fraction(v) for v in lam]
    if not lam or any(v <= 0 for v in lam):
        raise DomainError("box exponents must be positive")
    # a constant map keeps the lambda_i, for compute_flow to reject
    t_exps = {sum(v * x for v, x in zip(lam, e)) for e in exponents or ()} - {0} or lam

    def admissible(c: Fraction) -> bool:
        return all(c * v > 1 for v in lam) and any(
            (c * s).denominator != 1 for s in t_exps
        )

    cap = max(Fraction(2), max(1 / v for v in lam)) + 4
    denom = 2
    while denom <= 1 << 20:
        num = denom if denom == 2 else denom + 1  # start at 1, else first odd > denom
        while Fraction(num, denom) <= cap:
            c = Fraction(num, denom)
            if denom == 2 or num % 2 == 1:  # odd numerators are new to this grid
                if admissible(c):
                    return c, tuple(c * v for v in lam)
            num += 1
        denom *= 2
    raise BoxflowError("exponent normalization search did not terminate")


# ---------------------------------------------------------------------------
# flow extraction in the rescaled parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlowResult:
    """Exact data of the limiting flow of a rescaled trajectory.

    q         -- critical exponent (positive rational)
    d         -- Taylor truncation order
    limits    -- M_1 .. M_d, matrices of polynomials in the alpha variables;
                 M_1 (``generator``) is the nilpotent generator of the flow
    degenerate_locus -- the nonzero entry polynomials of all M_l; the flow
                 collapses to the identity exactly where all of them vanish
    """

    q: Fraction
    d: int
    limits: tuple
    degenerate_locus: tuple
    alpha_vars: tuple

    @property
    def generator(self) -> PolyMatrix:
        return self.limits[0]


def _taylor_shift_t(matrix: PolyMatrix, max_order: int) -> PolyMatrix:
    """Expand t -> t + xi term by term via the binomial series, truncated
    at xi-order ``max_order``.

    For fractional exponents the series is infinite; every discarded term
    has t-degree strictly below (term degree - max_order), which is what
    makes the truncation safe for the sign test in the flow iteration.
    """

    def shift_entry(p: GenPoly) -> GenPoly:
        out = GenPoly.zero()
        for mono, coeff in p.terms():
            powers = dict(mono)
            e = powers.pop(T_VAR, Fraction(0))
            base = GenPoly.monomial(coeff, powers)
            if e.denominator == 1 and e >= 0:
                top = min(max_order, int(e))
            else:
                top = max_order
            binom = Fraction(1)
            for j in range(top + 1):
                term = GenPoly.monomial(binom, {T_VAR: e - j, XI_VAR: j})
                out = out + base * term
                binom = binom * (e - j) / (j + 1)
        return out

    return matrix.map_entries(shift_entry)


class _Cocycles:
    """The derivative cocycles D^l theta(t) theta(t)^{-1}, l = 1, 2, ..., of
    a unimodular map in the Laurent variable t.  The derivative tower and
    the inverse are computed once, and each cocycle once, on first use."""

    def __init__(self, theta: PolyMatrix):
        self.inverse = theta.inverse_sl()
        self._derivs = [theta]
        self._cocycles = {}

    def deriv(self, l: int) -> PolyMatrix:
        while len(self._derivs) <= l:
            self._derivs.append(self._derivs[-1].differentiate(T_VAR))
        return self._derivs[l]

    def cocycle(self, l: int) -> PolyMatrix:
        if l not in self._cocycles:
            self._cocycles[l] = self.deriv(l) @ self.inverse
        return self._cocycles[l]

    def exponent(self, order: int) -> Optional[Fraction]:
        """The critical exponent max_{l <= order} deg_t(cocycle l) / l, or
        None if every such cocycle vanishes."""
        degs = ((self.cocycle(l).degree_in(T_VAR), l) for l in range(1, order + 1))
        return max((Fraction(dg, l) for dg, l in degs if dg is not NEG_INF), default=None)

    def scaled(self, l: int, q: Fraction) -> PolyMatrix:
        """cocycle l times t^{-q l}."""
        return self.cocycle(l).scale(GenPoly.monomial(1, {T_VAR: -q * l}))


def _monomials(m: PolyMatrix):
    """The exponent dicts of every term of every entry of ``m``."""
    return (dict(mono) for row in m.entries for e in row for mono, _ in e.terms())


def _limit(m: PolyMatrix) -> PolyMatrix:
    """Entry-by-entry limit as t -> infinity."""
    return m.map_entries(lambda e: e.limit_t_to_infinity()[0])


def compute_flow(theta: PolyMatrix) -> FlowResult:
    """Run the exact degree iteration on a rescaled map theta(alpha, t).

    Preconditions: theta is unimodular, nonconstant in t, and at least one
    t-exponent is not an integer (arrange both via ``normalize_exponents``
    followed by ``rescale``).
    """
    t_exps = {powers.get(T_VAR, Fraction(0)) for powers in _monomials(theta)}
    if not t_exps - {0}:
        raise DomainError("map is constant in t")
    if all(exp.denominator == 1 for exp in t_exps):
        raise DomainError(
            "no fractional t-exponent present; normalize the box exponents first"
        )

    alpha_vars = tuple(v for v in theta.variables() if v != T_VAR)
    table = _Cocycles(theta)

    # first order whose next derivative has every entry of negative t-degree
    d = next(
        (l for l in range(1, _MAX_ORDER) if NEG_INF < table.deriv(l + 1).degree_in(T_VAR) < 0),
        None,
    )
    if d is None:
        raise BoxflowError("order search exceeded the safety cap")

    def q_of(order: int) -> Fraction:
        q = table.exponent(order)
        if q is None:
            raise BoxflowError("all derivative cocycles vanished")
        return q

    def shifted_degree_nonnegative(order: int, q: Fraction) -> bool:
        """Sign of the top t-degree of D^{order+1}theta(t+xi) theta^{-1}
        t^{-q(order+1)}, maximized over all (xi, alpha)-coefficients."""
        nxt = table.deriv(order + 1)
        bound = nxt.degree_in(T_VAR) + table.inverse.degree_in(T_VAR) - q * (order + 1)
        if bound < 0:
            return False
        shifted = _taylor_shift_t(nxt, int(math.floor(bound)) + 1)
        prod = (shifted @ table.inverse).scale(
            GenPoly.monomial(1, {T_VAR: -q * (order + 1)})
        )
        return prod.degree_in(T_VAR) >= 0

    q = q_of(d)
    while shifted_degree_nonnegative(d, q):
        d += 1
        if d >= _MAX_ORDER:
            raise BoxflowError("degree iteration exceeded the safety cap")
        q = q_of(d)

    if q <= 0:
        raise BoxflowError(f"critical exponent must be positive, got {q}")

    limits = tuple(_limit(table.scaled(l, q)) for l in range(1, d + 1))
    locus = tuple(
        e for m in limits for row in m.entries for e in row if not e.is_zero()
    )
    return FlowResult(
        q=q,
        d=d,
        limits=limits,
        degenerate_locus=locus,
        alpha_vars=alpha_vars,
    )


def _flow_series(mats: Sequence[PolyMatrix], s_var: str) -> PolyMatrix:
    """Id + sum_l M_l s^l / l! over M_1, M_2, ... = ``mats``, exactly."""
    acc = PolyMatrix.identity(mats[0].dim)
    fact = 1
    for l, m in enumerate(mats, start=1):
        fact *= l
        acc = acc + m.scale(GenPoly.monomial(Fraction(1, fact), {s_var: l}))
    return acc


def _max_deviation(a, b, n: int) -> float:
    """Max-entry distance of two n x n mpmath matrices."""
    return float(max(abs(a[i, j] - b[i, j]) for i in range(n) for j in range(n)))


def flow_of(result: FlowResult, s_var: str = "s") -> PolyMatrix:
    """The symbolic flow Id + sum_l M_l s^l / l!."""
    return _flow_series(result.limits, s_var)


def nilpotent_exp(y: np.ndarray, s) -> np.ndarray:
    """exp(s*Y) for nilpotent Y via the finite sum of N terms.

    ``y`` may be a stack (..., N, N) with ``s`` broadcasting over its leading
    axes; each matrix of the result equals the call on that matrix alone,
    bit for bit, and every matrix must pass the nilpotency check.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    peaks = np.max(np.abs(np.linalg.matrix_power(y, n)), axis=(-2, -1))
    failed = [
        (tuple(idx.tolist()), f"Y^{n} has max entry {peaks[tuple(idx)]:.3e} >= 1e-9")
        for idx in np.argwhere(peaks >= 1e-9)
    ]
    if failed:
        idx, msg = failed[0]
        if idx:
            msg = f"matrix {idx} of {peaks.size}: {msg} ({len(failed)} fail)"
        raise NilpotencyError(msg, failed)
    sy = np.asarray(s, dtype=float)[..., None, None] * y
    acc = np.eye(n)
    term = np.eye(n)
    for j in range(1, n):
        term = term @ sy / j
        acc = acc + term
    return acc


@dataclass(frozen=True)
class GroupLawReport:
    symbolic_ok: bool
    exp_max_err: float
    trials: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return self.symbolic_ok and not self.failures


def group_law_check(result: FlowResult, trials: int = 100, seed: int = 0) -> GroupLawReport:
    """Verify the one-parameter group law of the extracted flow.

    Symbolically: flow(s1 + s2) = flow(s1) @ flow(s2) as an exact matrix
    identity in the alpha variables and (s1, s2).  Numerically: the
    generator exponentiates back to the flow at sampled rational points.
    """
    if trials < 0:
        raise DomainError("the number of trials must be nonnegative")
    failures = []
    rho1 = flow_of(result, "s1")
    rho2 = flow_of(result, "s2")
    rho = flow_of(result, "s")
    rho12 = rho.substitute({"s": GenPoly.variable("s1") + GenPoly.variable("s2")})
    symbolic_ok = rho12 == rho1 @ rho2
    if not symbolic_ok:
        failures.append("flow(s1+s2) != flow(s1)@flow(s2) symbolically")

    # the same scalar draws, in the same order, as one trial at a time
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x666C6F77]))
    nums = np.empty((trials, len(result.alpha_vars)))
    steps = np.empty(trials)
    for i in range(trials):
        for j in range(len(result.alpha_vars)):
            nums[i, j] = rng.integers(0, 128)
        steps[i] = rng.integers(-64, 65)
    # float(Fraction(a, b)) is a / b correctly rounded, as is a / float(b)
    floats = {v: nums[:, j] / 127 for j, v in enumerate(result.alpha_vars)}
    s = steps / 32
    n = result.generator.dim
    y0 = np.broadcast_to(result.generator.evaluate(floats), (trials, n, n))
    bad = {}
    try:
        exp_val = nilpotent_exp(y0, s)
    except NilpotencyError as err:
        bad = {idx[0]: msg for idx, msg in err.failed}
        keep = np.ones(trials, dtype=bool)
        keep[list(bad)] = False
        exp_val = np.zeros_like(y0)
        exp_val[keep] = nilpotent_exp(y0[keep], s[keep])
    direct = rho.evaluate({**floats, "s": s})
    errs = np.max(np.abs(exp_val - direct), axis=(-2, -1))
    max_err = 0.0
    for i, err in enumerate(errs.tolist()):
        if i in bad:
            failures.append(f"trial {i}: {bad[i]}")
            continue
        max_err = max(max_err, err)
        if err > 1e-9:
            failures.append(
                f"trial {i}: exp(s*Y) deviates from the flow by {err:.3e}"
            )
    return GroupLawReport(
        symbolic_ok=symbolic_ok,
        exp_max_err=max_err,
        trials=trials,
        failures=tuple(failures),
    )


def limit_residual(
    theta: PolyMatrix,
    result: FlowResult,
    alpha: Mapping[str, float],
    s: float,
    t: float,
) -> float:
    """Max-entry deviation of theta(alpha, t + s t^{-q}) theta(alpha, t)^{-1}
    from the limiting flow at s, evaluated at ``_RESIDUAL_DPS`` decimal
    digits.

    Precondition: det theta = 1 identically, as ``compute_flow`` requires;
    the inverse is then the adjugate of the evaluated matrix."""
    if not t > 0:
        raise DomainError("t must be positive")
    with mpmath.workdps(_RESIDUAL_DPS):
        alpha_mp = {k: mpmath.mpf(v) for k, v in alpha.items()}
        t_mp = mpmath.mpf(t)
        s_mp = mpmath.mpf(s)
        q_mp = rational_mpf(result.q)
        t_shift = t_mp + s_mp * mpmath.power(t_mp, -q_mp)
        a = theta.evaluate_mp({**alpha_mp, T_VAR: t_shift})
        b = theta.evaluate_mp({**alpha_mp, T_VAR: t_mp})
        prod = a * mpmath.matrix(adjugate(b.tolist()))
        rho = flow_of(result).evaluate_mp({**alpha_mp, "s": s_mp})
        return _max_deviation(prod, rho, theta.dim)


# ---------------------------------------------------------------------------
# two-variable maps: joint expansion in (x, y)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoDimFlowResult:
    """Flow data of a two-variable map expanded first in x, then in y.

    lambda_of_y is the nilpotent generator as a polynomial matrix in y;
    lambda0 its leading y-coefficient; p the y-degree of the derivative
    cocycle; any box family with the x-side growing faster than the
    y-side to the power b keeps the flow nondegenerate.
    """

    q: Fraction
    d0: int
    lambda_of_y: PolyMatrix
    d: int
    lambda0: PolyMatrix
    p: int
    b: Fraction
    ratio_set: tuple
    dominant_ratio: Optional[tuple]
    x_var: str
    y_var: str

    def flow(self, s_var: str = "s") -> PolyMatrix:
        """exp(s * lambda0), exact (lambda0 is nilpotent with rational
        entries)."""
        powers = [self.lambda0]
        for _ in range(self.lambda0.dim - 2):
            powers.append(powers[-1] @ self.lambda0)
        return _flow_series(powers, s_var)


def twodim_flow(theta_map: PolyMatrix, x_var: str = "x", y_var: str = "y") -> TwoDimFlowResult:
    """Extract (q, lambda(y), d, lambda0, p, b, ratio set) from a
    two-variable unimodular map with positive x-degree."""
    d0 = theta_map.degree_in(x_var)
    if d0 <= 0:
        raise DomainError("map must have positive x-degree")
    d0 = int(d0)
    _require_identity_at_origin(theta_map, (x_var, y_var))

    # route the x-direction through the distinguished Laurent variable
    table = _Cocycles(theta_map.substitute({x_var: GenPoly.variable(T_VAR)}))
    q = table.exponent(d0)
    if q is None:
        raise BoxflowError("derivative cocycle vanished identically")
    q = max(q, Fraction(0))

    scaled = table.scaled(1, q)
    lam_y = _limit(scaled)
    if lam_y.is_zero():
        raise BoxflowError("flow generator vanished; extraction failed")

    d = int(max(lam_y.degree_in(y_var), 0))
    lambda0 = lam_y.map_entries(lambda e: e.coefficient_of(y_var, d))
    if lambda0.is_zero():
        raise BoxflowError("leading coefficient of the generator vanished")
    n = lambda0.dim
    power = lambda0
    for _ in range(n - 1):
        power = power @ lambda0
    if not power.is_zero():
        raise NilpotencyError("generator leading coefficient is not nilpotent")

    p = int(max(table.cocycle(1).degree_in(y_var), 0))
    b = Fraction(p + 1)

    ratios = set()
    for powers in _monomials(scaled):
        r = -powers.get(T_VAR, Fraction(0))
        t_exp = powers.get(y_var, Fraction(0))
        if r != 0 and t_exp >= 0:
            ratios.add((t_exp, r))
    ratio_set = tuple(sorted(ratios))
    dominant = None
    if ratio_set:
        dominant = max(ratio_set, key=lambda tr: (Fraction(tr[0], tr[1]), tr))

    return TwoDimFlowResult(
        q=q,
        d0=d0,
        lambda_of_y=lam_y,
        d=d,
        lambda0=lambda0,
        p=p,
        b=b,
        ratio_set=ratio_set,
        dominant_ratio=dominant,
        x_var=x_var,
        y_var=y_var,
    )


def twodim_residual(
    theta_map: PolyMatrix,
    result: TwoDimFlowResult,
    s: float,
    x: float,
    y: float,
) -> float:
    """Deviation between flow(s) @ theta(x, y) and
    theta(x + s y^{-d} x^{-q}, y) in the right-invariant sense: both sides
    are translated back by theta(x, y)^{-1}, which turns the comparison
    into max-entry distance between the shift cocycle and the flow.

    Precondition: det theta = 1 identically, as ``twodim_flow`` requires;
    the inverse is then the adjugate of the evaluated matrix."""
    if not (x > 0 and y > 0):
        raise DomainError("x and y must be positive")
    with mpmath.workdps(_RESIDUAL_DPS):
        x_mp, y_mp, s_mp = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(s)
        q_mp = rational_mpf(result.q)
        x_shift = x_mp + s_mp * mpmath.power(y_mp, -result.d) * mpmath.power(
            x_mp, -q_mp
        )
        a = theta_map.evaluate_mp({result.x_var: x_shift, result.y_var: y_mp})
        base = theta_map.evaluate_mp({result.x_var: x_mp, result.y_var: y_mp})
        cocycle = a * mpmath.matrix(adjugate(base.tolist()))
        rho = result.flow().evaluate_mp({"s": s_mp})
        return _max_deviation(cocycle, rho, theta_map.dim)
