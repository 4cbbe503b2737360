"""Unit-system sanity: constants and conversions."""

import math

import pytest

from repro.md import units


def test_coulomb_constant_matches_charmm():
    assert units.COULOMB_CONSTANT == pytest.approx(332.0716)


def test_accel_convert_value():
    # 1 kcal/mol/A on 1 amu = 4184e-4 A/ps^2 * 1e6 = 418.4
    assert units.ACCEL_CONVERT == pytest.approx(418.4)


def test_boltzmann_constant_order_of_magnitude():
    # kT at 300 K is about 0.6 kcal/mol
    assert 0.59 < units.BOLTZMANN_KCAL * 300.0 < 0.60


def test_deg2rad():
    assert units.DEG2RAD * 180.0 == pytest.approx(math.pi)
