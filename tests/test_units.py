import math

import pytest

from gpesoliton import units
from gpesoliton.errors import DomainError, UnsupportedRegimeError


LI7_MASS = units.LI7_MASS_U * units.ATOMIC_MASS


def li7(N=900.0):
    """7Li in a 150 Hz radial trap."""
    return units.PhysicalParams(units.LI7_SCATTERING_LENGTH, LI7_MASS, 150.0, N)


class TestOscillatorLength:
    def test_lithium_cigar_trap(self):
        # 150 Hz radial trap, omega = 2 pi nu
        a0 = units.oscillator_length(li7())
        assert 2.8e-6 <= a0 <= 3.3e-6

    def test_matches_formula(self):
        p = li7()
        omega = 2 * math.pi * 150.0
        assert units.oscillator_length(p) == pytest.approx(
            math.sqrt(units.HBAR / (LI7_MASS * omega)), rel=1e-15)

    def test_sqrt_mass_scaling(self):
        p1 = units.PhysicalParams(-1e-9, 1e-26, 100.0, 1.0)
        p4 = units.PhysicalParams(-1e-9, 4e-26, 100.0, 1.0)
        assert units.oscillator_length(p4) == pytest.approx(
            0.5 * units.oscillator_length(p1), rel=1e-12)

    def test_identity_case(self):
        # m = hbar and omega = 1 gives a0 = 1
        nu = 1.0 / (2 * math.pi)
        p = units.PhysicalParams(-1e-9, units.HBAR, nu, 1.0)
        assert units.oscillator_length(p) == pytest.approx(1.0, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            units.PhysicalParams(-1e-9, -1.0, 100.0, 1.0)
        with pytest.raises(DomainError):
            units.PhysicalParams(-1e-9, 1e-26, 0.0, 1.0)

    # m*omega underflows to 0 (a0 would be infinite) or overflows to inf (a0 would be 0,
    # and N = 0 for any Q)
    @pytest.mark.parametrize("mass_u, nu, got", [(units.LI7_MASS_U, 1e-310, "inf"),
                                                 (1e300, 1e300, "0.0")],
                             ids=["underflow", "overflow"])
    def test_a0_outside_the_float_range_rejected(self, mass_u, nu, got):
        p = units.PhysicalParams(units.LI7_SCATTERING_LENGTH, mass_u * units.ATOMIC_MASS, nu, 5.0)
        for call in (units.oscillator_length, units.q_from_n, lambda p: units.n_from_q(5.0, p)):
            with pytest.raises(DomainError, match=f"oscillator length a0 must be a finite "
                                                  f"number > 0, got {got}$"):
                call(p)


class TestInteractionStrength:
    def test_q10_matches_lithium_population(self):
        N = units.n_from_q(10.0, li7())
        assert 800 <= N <= 1000

    def test_q17_matches_lithium_population(self):
        N = units.n_from_q(17.0, li7())
        assert 1350 <= N <= 1650

    def test_zero_atoms(self):
        assert units.q_from_n(li7(N=0.0)) == 0.0

    def test_requires_attractive(self):
        p = units.PhysicalParams(1e-9, 1e-26, 100.0, 1.0)
        with pytest.raises(UnsupportedRegimeError):
            units.q_from_n(p)
        with pytest.raises(UnsupportedRegimeError):
            units.n_from_q(5.0, p)

    @pytest.mark.parametrize("N", [1.0, 137.0, 900.0, 1e6])
    def test_round_trip(self, N):
        p = li7(N=N)
        assert units.n_from_q(units.q_from_n(p), p) == pytest.approx(N, rel=1e-12)

    def test_linear_in_n_and_a(self):
        q1 = units.q_from_n(li7(N=450.0))
        q2 = units.q_from_n(li7(N=900.0))
        assert q2 == pytest.approx(2 * q1, rel=1e-12)
        p_half_a = units.PhysicalParams(0.5 * units.LI7_SCATTERING_LENGTH,
                                        LI7_MASS, 150.0, 900.0)
        assert units.q_from_n(p_half_a) == pytest.approx(0.5 * q2, rel=1e-12)
