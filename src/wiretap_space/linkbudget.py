"""Static downlink geometry and eavesdropper exclusion radii.

The transmitted beam is Gaussian with a full divergence angle ``theta_div``
quoted at 1/e^2, so its 1/e^2 radius at range ``d`` is ``theta_div * d / 2``.
The static budget collects the footprint-area fraction ``(a / (theta d))^2``,
``a = min(D, theta d)`` the filled aperture (:func:`_footprint_fraction`,
which ``orbitsim._station_fraction`` also takes beside the pass model's
default, the encircled-power form).  The interceptor's fraction adds the
Gaussian tail factor imposed by the exclusion angle.

Two exclusion-radius models are provided.  The "partial" model gives the
interceptor a fixed telescope at the same range as the receiver and inverts
the degradation ratio in closed form.  The "total" model is more
conservative: the interceptor collects *all* light outside the exclusion
cone; its implicit equation also inverts in closed form.
"""
from __future__ import annotations

import math
import warnings

from ._common import ConfigError, _check_ranges, _range_problem, _ruled, _section

__all__ = [
    "LinkBudgetWarning",
    "LinkGeometry",
    "bob_free_space",
    "eve_free_space",
    "gamma_partial",
    "exclusion_radius_partial",
    "exclusion_radius_total",
    "radius_vs_gamma_curve",
    "db_to_fraction",
    "fraction_to_db",
]


DEFAULT_GAMMA_TARGET = 0.1  # degradation target of exclusion radii, table1 and the orbital-offset solve
# Orbital-offset search range of ``orbitsim.required_orbital_exclusion``, metres.
OFFSET_BOUNDS = (1e3, 2e5)


class LinkBudgetWarning(UserWarning):
    """Signals a clamped or otherwise suspicious link-budget value."""


def db_to_fraction(loss_db: float) -> float:
    """Convert a positive loss in dB to a transmission fraction."""
    return 10.0 ** (-loss_db / 10.0)


def fraction_to_db(fraction: float) -> float:
    """Convert a transmission fraction to a positive loss in dB."""
    _check_ranges(("fraction", "(0, 1]", fraction))
    return 0.0 - 10.0 * math.log10(fraction)  # 0.0 at 1, not -0.0


def _check_gamma_target(gamma_target: float) -> None:
    """Raise ``ConfigError`` unless the degradation target is in (0, 1)."""
    if problem := _range_problem("gamma_target", "(0, 1)", gamma_target):
        raise ConfigError([problem])


def check_offset_solve(alice_altitude: float, gamma_target: float) -> None:
    """Raise ``ConfigError`` unless the orbital-offset solve can run: the target
    in (0, 1), then the transmitter above :data:`OFFSET_BOUNDS`' upper end, as
    no interceptor orbit that far below fits.  The solve's inputs, checked
    before any pass (and with no numpy)."""
    _check_gamma_target(gamma_target)
    lo, hi = OFFSET_BOUNDS
    if alice_altitude <= hi:
        raise ConfigError([f"the offset solve searches {lo / 1e3:g}-{hi / 1e3:g} km below the transmitter, "
                           f"so alice_altitude must exceed {hi:g} m, got {alice_altitude}"])


def _beam_radius(divergence, distance):
    """Far-field 1/e^2 beam radius ``divergence * distance / 2``; broadcasts."""
    return 0.5 * divergence * distance


def _footprint_fraction(diam, divergence, distance):
    """Filled aperture over footprint area, ``(a / (theta d))^2``, as
    ``(D / max(D, theta d))^2``: exactly 1 on a footprint narrower than the
    aperture, also on one that underflows to 0.  Broadcasts over arrays, with
    no numpy: the ``max`` is a sum of two terms, each the value under its
    mask and 0 elsewhere.
    """
    footprint = divergence * distance
    wider = (footprint > diam) * footprint + (footprint <= diam) * diam
    return (diam / wider) ** 2


@_section
class LinkGeometry:
    """Downlink geometry for the receiver and a ground-based interceptor.

    Distances are transmitter-to-receiver slant ranges; telescope sizes are
    diameters; ``eta_b`` lumps every receiver-side loss (atmosphere,
    pointing, optics, detector) into one fraction.
    """

    dist_bob: float = _ruled("> 0", 1.2e6)
    dist_eve: float = _ruled("> 0", 1.2e6)
    diam_bob: float = _ruled("> 0", 1.0)
    diam_eve: float = _ruled("> 0", 2.0)
    divergence_full_angle: float = _ruled("> 0", 1e-5)
    eta_b: float = _ruled("(0, 1]", 0.01)
    exclusion_radius: float = _ruled(">= 0", 12.5)

    @property
    def exclusion_angle(self) -> float:
        """Small-angle exclusion half-angle ``r_E / d_B``."""
        return self.exclusion_radius / self.dist_bob


def _exclusion_exponent(geom: LinkGeometry) -> float:
    """Exponent ``-2 r^2``, ``r = 2 theta_E / theta_div``, of the exclusion cone's
    Gaussian tail factor; ``-inf`` where ``ratio ** 2`` would raise on overflow."""
    ratio = 2.0 * geom.exclusion_angle / geom.divergence_full_angle
    return -2.0 * ratio * ratio


def _filled_ratio(geom: LinkGeometry, dist_eve: float) -> float:
    """Filled-aperture ratio ``a_E / a_B``, ``a = min(D, theta d)``, the
    interceptor at range ``dist_eve``.  Where the receiver's footprint is the
    narrower, ``d_B < D_B / theta``, it is ``min(D_E / theta, d_E) / d_B``, so a
    footprint that underflows to 0 is no divisor."""
    theta = geom.divergence_full_angle
    if geom.dist_bob < geom.diam_bob / theta:
        return min(geom.diam_eve / theta, dist_eve) / geom.dist_bob
    return min(geom.diam_eve, theta * dist_eve) / geom.diam_bob


def bob_free_space(geom: LinkGeometry) -> float:
    """Fraction of transmitted light collected by the receiver aperture.

    The footprint-area fraction ``(a / (theta d))^2``: 1, with a warning, when
    the footprint is narrower; ``FloatingPointError`` when it underflows to 0.
    """
    ratio = _footprint_fraction(geom.diam_bob, geom.divergence_full_angle, geom.dist_bob)
    if ratio == 0.0:
        raise FloatingPointError(
            f"receiver fraction underflows to 0: diam_bob={geom.diam_bob}, "
            f"dist_bob={geom.dist_bob}, divergence={geom.divergence_full_angle}"
        )
    if geom.dist_bob < geom.diam_bob / geom.divergence_full_angle:
        # log10 of the ratio (D / (theta d))^2, which may overflow a float
        excess = 2.0 * (
            math.log10(geom.diam_bob) - math.log10(geom.divergence_full_angle) - math.log10(geom.dist_bob)
        )
        warnings.warn(
            "beam footprint smaller than receiver aperture "
            f"(ratio {10.0 ** (excess % 1.0):.3g}e{math.floor(excess):+03d}); clamped to 1",
            LinkBudgetWarning,
            stacklevel=2,
        )
    return ratio


def eve_free_space(geom: LinkGeometry) -> float:
    """Interceptor's collection fraction outside the exclusion angle.

    Footprint-area fraction at the interceptor's range times the
    Gaussian tail factor ``exp(-2 (2 theta_E / theta_div)^2)``.
    """
    ratio = _footprint_fraction(geom.diam_eve, geom.divergence_full_angle, geom.dist_eve)
    return ratio * math.exp(_exclusion_exponent(geom))


def gamma_partial(geom: LinkGeometry) -> float:
    """Channel-degradation ratio for the fixed-telescope interceptor model.

    ``eve_free_space / (eta_b bob_free_space)``, in closed form
    ``(1/eta_b) ((d_B/d_E) (a_E/a_B))^2 exp(-2 (2 theta_E/theta_div)^2)``.
    Where one factor underflows to 0 and another overflows, the sum of the
    factors' logs decides the value.  Values >= 1 are legal outputs (they
    mean no secrecy is possible) and are rejected only when fed into secrecy
    computations.  Raises ``FloatingPointError`` only when it overflows.
    """
    exponent = _exclusion_exponent(geom)
    ratio = (geom.dist_bob / geom.dist_eve) * _filled_ratio(geom, geom.dist_eve)
    gamma = (1.0 / geom.eta_b) * (ratio * ratio) * math.exp(exponent)
    if math.isnan(gamma):  # (d_B/d_E) (a_E/a_B) = (a_E/d_E) / (a_B/d_B), a/d = min(D/d, theta)
        eve, bob = (min(math.log(diam) - math.log(dist), math.log(geom.divergence_full_angle))
                    for diam, dist in ((geom.diam_eve, geom.dist_eve), (geom.diam_bob, geom.dist_bob)))
        try:
            gamma = math.exp(2.0 * (eve - bob) - math.log(geom.eta_b) + exponent)
        except OverflowError:
            gamma = math.inf
    if math.isinf(gamma):
        raise FloatingPointError(f"degradation ratio is inf: {geom}")
    return gamma


def exclusion_radius_partial(
    gamma_target: float,
    dist: float,
    eta_b: float,
    diam_ratio_eve_over_bob: float,
    divergence: float,
) -> float:
    """Exclusion radius achieving ``gamma_target`` against a fixed telescope.

    Inverts :func:`gamma_partial` at equal ranges ``d``:
    ``r = (theta d / 2) sqrt( ln((1/gamma)(1/eta_b)(a_E/a_B)^2) / 2 )``
    with the natural logarithm and ``a_E/a_B`` the filled-aperture ratio.

    Raises ``ConfigError`` when the logarithm argument is below 1, i.e. when
    the target degradation is met with no exclusion zone at all; an argument
    of exactly 1 returns 0.  A ratio of 0 makes the argument 0, also where
    ``1/gamma`` overflows.  Where the product of the factors overflows or
    underflows to 0, its logarithm is the sum of the factors' logs,
    ``-ln gamma - ln eta_b + 2 ln(a_E/a_B)``, which decides both cases.
    """
    _check_gamma_target(gamma_target)
    _check_ranges(("dist", "> 0", dist), ("eta_b", "(0, 1]", eta_b),
                  ("diam_ratio_eve_over_bob", ">= 0", diam_ratio_eve_over_bob), ("divergence", "> 0", divergence))
    if diam_ratio_eve_over_bob == 0.0:  # the product is 0 even where 1/gamma overflows
        log_value, shown = -math.inf, "0"
    else:
        log_arg = (1.0 / gamma_target) * (1.0 / eta_b) * (diam_ratio_eve_over_bob * diam_ratio_eve_over_bob)
        if 0.0 < log_arg < math.inf:
            log_value, shown = math.log(log_arg), f"{log_arg:.4g}"
        else:  # overflowed, underflowed to 0, or both (inf * 0)
            log_value = -math.log(gamma_target) - math.log(eta_b) + 2.0 * math.log(diam_ratio_eve_over_bob)
            shown = f"exp({log_value:.4g})"
    if log_value < 0.0:
        raise ConfigError([f"no exclusion radius needed: degradation target already met (log argument {shown} < 1)"])
    return _beam_radius(divergence, dist) * math.sqrt(0.5 * log_value)


def exclusion_radius_total(
    gamma_target: float, dist: float, diam_bob: float, divergence: float
) -> float:
    """Exclusion radius when the interceptor collects *all* outside light.

    Inverts ``exp(-2 (r/(theta d))^2) = gamma (1 - exp(-2 (D_B/(theta d))^2))``
    exactly: ``r = theta d sqrt(-ln(rhs) / 2)`` with ``rhs`` the right side,
    taken through ``expm1`` so small apertures keep full precision.  The left
    side is the beam power beyond radius ``r`` on the outside-cone scale, the
    right side the target fraction of the receiver's collected power.

    Raises ``FloatingPointError`` when the radius cannot be represented: the
    right side underflows to 0 or the radius overflows.
    """
    _check_gamma_target(gamma_target)
    _check_ranges(("dist", "> 0", dist), ("diam_bob", "> 0", diam_bob), ("divergence", "> 0", divergence))
    scale = divergence * dist
    ratio = diam_bob / scale if scale > 0.0 else math.inf  # a footprint that underflows is the narrower
    rhs = -gamma_target * math.expm1(-2.0 * ratio * ratio)  # not ** 2, which raises on overflow
    if rhs > 0.0:
        radius = scale * math.sqrt(-0.5 * math.log(rhs))
        if math.isfinite(radius):
            return radius
    raise FloatingPointError(
        f"exclusion radius cannot be represented: gamma_target={gamma_target}, "
        f"dist={dist}, diam_bob={diam_bob}, divergence={divergence}"
    )


def radius_vs_gamma_curve(geom: LinkGeometry, gamma_grid: list[float]) -> list[list[float]]:
    """The exclusion table's rows: ``[gamma, radius_partial, radius_total]`` per
    degradation target, the radii of both interceptor models."""
    dist, theta = geom.dist_bob, geom.divergence_full_angle
    ratio = _filled_ratio(geom, dist)
    return [
        [gamma, exclusion_radius_partial(gamma, dist, geom.eta_b, ratio, theta),
         exclusion_radius_total(gamma, dist, geom.diam_bob, theta)]
        for gamma in gamma_grid
    ]
