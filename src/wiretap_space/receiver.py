"""Threshold-detector model for the legitimate receiver.

A gated single-photon detector either clicks or stays silent.  Dark counts
and Poissonian stray light combine multiplicatively as independent no-click
events; the signal is attenuated by the full channel efficiency while stray
light only sees the receiver's internal optical efficiency.
:func:`_no_click_probabilities` (unchecked) is the click model over broadcast
arrays and :func:`_checked_prior` the prior check, the receiver's part of the
batched secrecy kernel; its entry checks photon number and gamma, then the
detector fields by :class:`DetectorModel`'s rule, then ``q``.
:func:`bob_click_model` and :func:`mutual_info_bob` are the same formulas on one detector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._common import _PHOTONS, DetectorModel, _RANGES, _check_ranges, _range_problem
from .numerics import _channel_information, _entropy

__all__ = [
    "DetectorModel",
    "BobChannel",
    "bob_click_model",
    "mutual_info_bob",
]


@dataclass(frozen=True)
class BobChannel:
    """No-click probabilities of the induced binary channel.

    ``eps0`` conditions on the vacuum symbol, ``eps1`` on the pulse symbol;
    adding signal can only increase the click probability, so
    ``eps1 <= eps0``.
    """

    eps0: float
    eps1: float

    def __post_init__(self):
        if not 0.0 <= self.eps1 <= self.eps0 <= 1.0:
            raise ValueError(
                f"require 0 <= eps1 <= eps0 <= 1, got eps0={self.eps0}, eps1={self.eps1}"
            )


def _no_click_probabilities(received_mean_photons, p_dark, eta_optical, stray_mean):
    """Array form of :func:`bob_click_model`: ``(eps0, eps1)`` broadcast over the
    inputs, which the caller has checked."""
    stray = eta_optical * stray_mean
    no_dark = 1.0 - p_dark
    return no_dark * np.exp(-stray), no_dark * np.exp(-(received_mean_photons + stray))


def _checked_prior(q) -> np.ndarray:
    """``q`` as a float array; raises for the first value outside [0, 1]."""
    q = np.asarray(q, dtype=float)
    inside = _RANGES["[0, 1]"](q)
    if not inside.all():
        raise ValueError(_range_problem("q", "[0, 1]", float(q[~inside][0])))
    return q


def bob_click_model(detector: DetectorModel, received_mean_photons: float) -> BobChannel:
    """No-click probabilities for a threshold detector.

    ``received_mean_photons`` is the signal mean photon number at the
    detector with every channel loss already applied (detector efficiency is
    folded into the channel efficiency upstream).
    """
    _check_ranges(("received_mean_photons", _PHOTONS, received_mean_photons))
    eps0, eps1 = _no_click_probabilities(
        received_mean_photons, detector.p_dark, detector.eta_optical, detector.stray_mean
    )
    return BobChannel(eps0=float(eps0), eps1=float(eps1))


def mutual_info_bob(q: float, channel: BobChannel) -> float:
    """Mutual information in bits of the click/no-click channel.

    ``q`` is the prior probability of the vacuum symbol.  Equals
    ``h(q eps0 + (1-q) eps1) - q h(eps0) - (1-q) h(eps1)``.
    """
    q = _checked_prior(q)
    p, eps0, eps1 = 1.0 - q, channel.eps0, channel.eps1
    entropies = _entropy(np.stack((q * eps0 + p * eps1, eps0, eps1)))
    return float(_channel_information(q, p, *entropies))
