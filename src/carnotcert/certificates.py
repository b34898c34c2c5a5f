"""Quantitative constants: distance bounds, error polynomials, box radii.

The chain goes: bracket-norm submultiplicativity (factor 2^min-degree per
application), the layer-error constant for a single adjusted set, polynomial
bounds for the prefix-product errors of a full decomposition, and finally
the per-layer box radii for which every vector in the box carries a
certified horizontal path of length at most 1.  The radii for two layers are
closed-form; deeper steps recurse through a deterministic dilation/bisection
schedule recorded in the trace.

All polynomial coefficients are exact rationals and depend only on d1 and
the step, so regeneration is bit-identical.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .bch_engine import beta_table, max_coeff_constants
from .errors import RecursionFailure
from .popp_metric import box_volume_parts

__all__ = [
    "BoundPolynomial",
    "BoxConstants",
    "box_radii",
    "error_bound_constant",
    "global_constants",
    "hausdorff_dimension",
    "prefix_error_polynomials",
    "single_layer_length_bound",
]


def single_layer_length_bound(arity: int, d1: int, nu: float) -> float:
    """Combinatorial length bound j * d1**((2j-1)/2) * nu**(1/j)."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    return arity * d1 ** ((2 * arity - 1) / 2) * nu ** (1.0 / arity)


def error_bound_constant(arity: int, d1: int, step: int) -> Fraction:
    """Constant bounding higher-layer errors of a single adjusted set:
    8**k * d1**(j*k) * beta_max * gamma_weight**k, all exact."""
    beta_max, gamma_weight = max_coeff_constants(d1, arity, step)
    return Fraction(8) ** step * Fraction(d1) ** (arity * step) * beta_max * (
        gamma_weight ** step
    )


class BoundPolynomial:
    """Polynomial with nonnegative rational coefficients in the variables
    b_1..b_k standing for (nu_1, sqrt(nu_2), ..., nu_k**(1/k)).

    Zero constant term is enforced: these polynomials bound error norms that
    vanish with the input.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict | None = None):
        self.nvars = nvars
        self.coeffs = {}
        for expo, c in (coeffs or {}).items():
            c = Fraction(c)
            if not c:
                continue
            if c < 0:
                raise ValueError("bound polynomials need nonnegative coefficients")
            if not any(expo):
                raise ValueError("bound polynomials need zero constant term")
            self.coeffs[tuple(expo)] = c

    @staticmethod
    def zero(nvars: int) -> "BoundPolynomial":
        return BoundPolynomial(nvars)

    @staticmethod
    def monomial(nvars: int, var: int, power: int, coeff=1) -> "BoundPolynomial":
        expo = [0] * nvars
        expo[var - 1] = power
        return BoundPolynomial(nvars, {tuple(expo): Fraction(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "BoundPolynomial") -> "BoundPolynomial":
        out = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            out[expo] = out.get(expo, Fraction(0)) + c
        return BoundPolynomial(self.nvars, out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BoundPolynomial(
                self.nvars,
                {e: c * other for e, c in self.coeffs.items()},
            )
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return BoundPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BoundPolynomial":
        if n < 1:
            raise ValueError("bound polynomials support powers >= 1 only")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def evaluate(self, args) -> float:
        args = list(args)
        if len(args) != self.nvars:
            raise ValueError(f"need {self.nvars} arguments")
        total = 0.0
        for expo in sorted(self.coeffs):
            term = float(self.coeffs[expo])
            for a, e in zip(args, expo):
                if e:
                    term *= float(a) ** e
            total += term
        return total

    def __repr__(self):
        if self.is_zero:
            return "BoundPolynomial(0)"
        bits = []
        for expo in sorted(self.coeffs):
            mono = "*".join(
                f"b{i + 1}^{e}" for i, e in enumerate(expo) if e
            )
            bits.append(f"{self.coeffs[expo]}*{mono}")
        return "BoundPolynomial(" + " + ".join(bits) + ")"


def _bracket_factor_exponent(degrees) -> int:
    """Exponent of 2 from iterated bracket-norm submultiplicativity.

    Each of the q-1 nested applications contributes min(left degree, total
    degree of the remaining tail)."""
    total = 0
    tail = sum(degrees)
    for m in degrees[:-1]:
        tail -= m
        total += min(m, tail)
    return total


def prefix_error_polynomials(d1: int, step: int) -> dict:
    """Bound polynomials for the prefix-product error vectors.

    Returns {(l, j): BoundPolynomial} for 1 <= j < l <= k, such that the
    layer-l error after j stages is bounded by the polynomial evaluated at
    (nu_1, sqrt(nu_2), ..., nu_k**(1/k)).  Built by the stage recursion: the
    product of the stage-(j+1) commutator element with the prefix is expanded
    through the two-factor group law; per-slot norms are bounded by layer
    monomials, previously computed prefix-error polynomials, or the
    single-set error constant, and each bracket term picks up the two-letter
    coefficient magnitude times the iterated bracket-norm factor.
    """
    k = step
    polys: dict = {}
    for l in range(2, k + 1):
        polys[(l, 1)] = BoundPolynomial.zero(k)
    if k == 1:
        return polys
    two_letter = beta_table(2, k)

    for j in range(1, k):
        # slots of the two BCH factors: (degree, polynomial, factor letter)
        slots: list[tuple[int, BoundPolynomial, int]] = []
        for p in range(1, j + 1):
            slots.append((p, BoundPolynomial.monomial(k, p, p), 1))
        for p in range(j + 1, k + 1):
            if not polys[(p, j)].is_zero:
                slots.append((p, polys[(p, j)], 1))
        stage = j + 1
        slots.append((stage, BoundPolynomial.monomial(k, stage, stage), 2))
        if not polys[(stage, j)].is_zero:
            slots.append((stage, polys[(stage, j)], 2))
        if stage < k:
            theta = error_bound_constant(stage, d1, k)
            correction = polys[(stage, j)]
            for l_err in range(stage + 1, k + 1):
                if correction.is_zero:
                    bound = BoundPolynomial.monomial(k, stage, l_err, theta)
                else:
                    w = BoundPolynomial.monomial(k, stage, stage) + correction
                    m_lo = l_err // stage
                    m_hi = -(-l_err // stage)
                    bound = w ** m_lo
                    if m_hi != m_lo:
                        bound = bound + w ** m_hi
                    bound = theta * bound
                slots.append((l_err, bound, 2))

        for l in range(stage + 1, k + 1):
            poly = polys[(l, j)]
            for deg, bound, letter in slots:
                if deg == l and letter == 2:
                    poly = poly + bound  # linear single-set error term
            poly = poly + _bracket_terms(slots, l, two_letter, k)
            polys[(l, stage)] = poly
    return polys


def _bracket_terms(slots, target_degree, two_letter, nvars) -> BoundPolynomial:
    """Sum over bracket words of slot bounds, coefficient magnitudes and
    submultiplicativity factors, for terms landing in the target layer."""
    out = BoundPolynomial.zero(nvars)
    max_len = max((len(w) for w in two_letter.entries), default=1)

    def rec(chosen, degree_sum):
        nonlocal out
        if len(chosen) >= 2 and degree_sum == target_degree:
            pattern = tuple(letter for _, _, letter in chosen)
            alpha = two_letter.entries.get(pattern)
            if alpha:
                degrees = [deg for deg, _, _ in chosen]
                factor = Fraction(2) ** _bracket_factor_exponent(degrees)
                term = abs(alpha) * factor
                poly = None
                for _, bound, _ in chosen:
                    poly = bound if poly is None else poly * bound
                out = out + term * poly
        if len(chosen) >= max_len or degree_sum >= target_degree:
            return
        for slot in slots:
            if degree_sum + slot[0] <= target_degree:
                rec(chosen + [slot], degree_sum + slot[0])

    rec([], 0)
    return out


class BoxConstants:
    """Per-layer box radii plus the derived volume and systolic constants;
    immutable: setting an attribute raises AttributeError."""

    __slots__ = ("dims", "radii", "hausdorff_dim", "ball_volume_lower",
                 "ball_volume_frac", "ball_volume_pi_exp", "systolic_constant",
                 "trace")

    def __init__(self, dims: tuple, radii: tuple, hausdorff_dim: int,
                 ball_volume_lower: float, ball_volume_frac: Fraction,
                 ball_volume_pi_exp: int, systolic_constant: float, trace: tuple):
        values = (dims, radii, hausdorff_dim, ball_volume_lower,
                  ball_volume_frac, ball_volume_pi_exp, systolic_constant, trace)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"BoxConstants is immutable: cannot set {name}")

    __delattr__ = __setattr__


def box_radii(d1: int, step: int) -> tuple[tuple, tuple]:
    """Per-layer radii (exact rationals) with box-to-unit-ball certification.

    Two layers use the closed-form pair (1/2, 1/(64 d1**3)).  Deeper steps
    scale the previous radii by a dilation parameter T and budget the top
    layer so that T/2**(k-2) plus the top-layer length bound
    (:func:`single_layer_length_bound`) stays below 2**(1-k); T is the
    largest dyadic value <= 1/4 for which the prefix error polynomial
    leaves room for a positive top-layer radius.
    """
    if step < 1:
        raise RecursionFailure("step must be >= 1")
    if step == 1:
        return (Fraction(1),), ()
    if step == 2:
        return (Fraction(1, 2), Fraction(1, 64 * d1 ** 3)), ()

    prev, trace = box_radii(d1, step - 1)
    poly = prefix_error_polynomials(d1, step)[(step, step - 1)]
    k = step
    if any(expo[k - 1] for expo in poly.coeffs):
        # stages 1..k-1 never touch the top layer, so its variable cannot
        # appear; evaluating it at 0 below would otherwise undercount
        raise RecursionFailure("top-layer variable in the prefix polynomial")
    cap = (2.0 ** (-k) / (k * d1 ** ((2 * k - 1) / 2))) ** k

    def q_value(t: Fraction) -> float:
        args = [float(t) * float(r) ** (1.0 / (i + 1)) for i, r in enumerate(prev)]
        args += [0.0] * (k - len(prev))
        return poly.evaluate(args)

    top = Fraction(1, 4)
    if q_value(top) <= cap / 2:
        t_scale = top
    else:
        lo, hi = Fraction(0), top
        for _ in range(80):
            mid = (lo + hi) / 2
            if q_value(mid) <= cap / 2:
                lo = mid
            else:
                hi = mid
        t_scale = lo
    if t_scale <= 0:
        raise RecursionFailure("no positive dilation parameter found")

    qval = q_value(t_scale)
    margin = Fraction(1) - Fraction(1, 10 ** 9)
    eps_hat = (Fraction(cap) - Fraction(qval)) * margin
    if eps_hat <= 0:
        raise RecursionFailure("no positive top-layer radius found")

    residual = (
        float(t_scale) / 2 ** (k - 2)
        + single_layer_length_bound(k, d1, float(eps_hat) + qval)
        - 2.0 ** (1 - k)
    )
    if residual > 1e-12:
        raise RecursionFailure(f"budget inequality violated: residual {residual}")

    radii = tuple(
        t_scale ** (i + 1) * r for i, r in enumerate(prev)
    ) + (eps_hat,)
    entry = {
        "level": k,
        "T": t_scale,
        "eps_hat": eps_hat,
        "eps_tilde": prev,
        "q_value": qval,
        "cap": cap,
        "residual": residual,
    }
    return radii, trace + (entry,)


def _log_volume(frac: Fraction, pi_exp: int) -> float:
    """log(frac * pi**pi_exp) from the exact parts, for any positive frac."""
    return (
        math.log(frac.numerator)
        - math.log(frac.denominator)
        + pi_exp * math.log(math.pi)
    )


def hausdorff_dimension(dims) -> int:
    """Q = sum of i * d_i over the layer dimensions d_1..d_k."""
    return sum(i * d for i, d in enumerate(dims, start=1))


def global_constants(dims) -> BoxConstants:
    """Box radii plus the volume lower bound and systolic constant."""
    dims = tuple(int(d) for d in dims)
    k = len(dims)
    radii, trace = box_radii(dims[0], k)
    hausdorff = hausdorff_dimension(dims)
    frac, pi_exp = box_volume_parts(dims, radii)
    volume = float(frac) * math.pi ** pi_exp
    if volume >= sys.float_info.min:
        constant = 2.0 * volume ** (-1.0 / hausdorff)
    else:  # float(frac) underflows from step 5 on (about 1e-403 for (2, 5))
        constant = 2.0 * math.exp(-_log_volume(frac, pi_exp) / hausdorff)
    return BoxConstants(
        dims=dims,
        radii=radii,
        hausdorff_dim=hausdorff,
        ball_volume_lower=volume,
        ball_volume_frac=frac,
        ball_volume_pi_exp=pi_exp,
        systolic_constant=constant,
        trace=trace,
    )
