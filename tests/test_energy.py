import random

import pytest

from clozerank.energy import (
    CARBON_INTENSITY,
    PUE,
    EnergyInput,
    co2e,
    energy_kwh,
    footprint,
    footprint_ratio,
)

from oracles import table_tolerance

# Published accounting for BERT vs. CPU-trained static embeddings:
# (power W, hours, reported kWh*PUE, reported CO2e)
BERT = EnergyInput(power_watts=12041, hours=79)
STATIC_EN = EnergyInput(power_watts=618, hours=5)
REPORTED = {
    "bert": {"kwh": 1507, "co2e": 1438},
    "static_en": {"kwh": 5, "co2e": 5},
    "ratio": {"power": 0.05, "hours": 0.06, "kwh": 0.003, "co2e": 0.003},
}


class TestFormula:
    def test_kwh_is_pue_times_hours_times_kilowatts(self):
        assert energy_kwh(STATIC_EN) == 1.58 * 5 * 618 / 1000.0
        assert energy_kwh(STATIC_EN) == pytest.approx(4.8822, abs=1e-12)

    def test_co2e_is_intensity_times_kwh(self):
        assert co2e(10.0) == pytest.approx(9.54, abs=1e-12)

    def test_zero_hours_means_zero_energy(self):
        idle = EnergyInput(power_watts=618, hours=0)
        assert energy_kwh(idle) == 0.0
        assert co2e(energy_kwh(idle)) == 0.0

    def test_linearity_in_hours_and_power(self):
        rng = random.Random(4)
        for _ in range(25):
            watts = rng.uniform(1, 20000)
            hours = rng.uniform(0.01, 100)
            base = energy_kwh(EnergyInput(watts, hours))
            assert energy_kwh(EnergyInput(watts, 2 * hours)) \
                == pytest.approx(2 * base, rel=1e-12)
            assert energy_kwh(EnergyInput(3 * watts, hours)) \
                == pytest.approx(3 * base, rel=1e-12)
            assert co2e(2 * base) == pytest.approx(2 * co2e(base), rel=1e-12)


class TestReportedCells:
    """Recompute each published table cell from its (W, h) inputs."""

    def test_static_en_kwh(self):
        computed = energy_kwh(STATIC_EN)
        reported = REPORTED["static_en"]["kwh"]
        assert abs(computed - reported) <= table_tolerance(reported, 0)

    def test_bert_kwh(self):
        computed = energy_kwh(BERT)
        reported = REPORTED["bert"]["kwh"]
        assert computed == pytest.approx(1502.9576, abs=1e-3)
        assert abs(computed - reported) <= table_tolerance(reported, 0)

    def test_bert_co2e_from_reported_kwh(self):
        computed = co2e(REPORTED["bert"]["kwh"])
        assert computed == pytest.approx(1437.678, abs=1e-9)
        assert abs(computed - REPORTED["bert"]["co2e"]) <= table_tolerance(1438, 0)

    def test_static_en_co2e(self):
        computed = co2e(energy_kwh(STATIC_EN))
        assert computed == pytest.approx(4.6576, abs=1e-3)
        assert abs(computed - REPORTED["static_en"]["co2e"]) \
            <= table_tolerance(5, 0)

    def test_ratio_row(self):
        ratios = footprint_ratio(STATIC_EN, BERT)
        assert ratios["power_ratio"] == pytest.approx(618 / 12041, abs=1e-12)
        reported = REPORTED["ratio"]
        assert abs(ratios["power_ratio"] - reported["power"]) \
            <= table_tolerance(reported["power"], 2)
        assert abs(ratios["hours_ratio"] - reported["hours"]) \
            <= table_tolerance(reported["hours"], 2)
        assert abs(ratios["kwh_ratio"] - reported["kwh"]) \
            <= table_tolerance(reported["kwh"], 3)
        assert abs(ratios["co2e_ratio"] - reported["co2e"]) \
            <= table_tolerance(reported["co2e"], 3)


class TestRatios:
    def test_identical_runs_give_unit_ratios(self):
        ratios = footprint_ratio(STATIC_EN, STATIC_EN)
        assert ratios == {"power_ratio": 1.0, "hours_ratio": 1.0,
                          "kwh_ratio": 1.0, "co2e_ratio": 1.0}

    def test_componentwise_division(self):
        rng = random.Random(9)
        for _ in range(25):
            a = EnergyInput(rng.uniform(1, 5000), rng.uniform(0.1, 50))
            b = EnergyInput(rng.uniform(1, 5000), rng.uniform(0.1, 50))
            ratios = footprint_ratio(a, b)
            assert ratios["power_ratio"] \
                == pytest.approx(a.power_watts / b.power_watts, rel=1e-12)
            assert ratios["hours_ratio"] == pytest.approx(a.hours / b.hours,
                                                          rel=1e-12)
            assert ratios["kwh_ratio"] \
                == pytest.approx(energy_kwh(a) / energy_kwh(b), rel=1e-12)
            assert ratios["co2e_ratio"] == pytest.approx(ratios["kwh_ratio"],
                                                         rel=1e-12)

    def test_zero_hours_denominator_rejected(self):
        idle = EnergyInput(power_watts=618, hours=0)
        with pytest.raises(ValueError):
            footprint_ratio(STATIC_EN, idle)


class TestFootprint:
    def test_fields(self):
        report = footprint(STATIC_EN)
        assert report["power_watts"] == 618
        assert report["hours"] == 5
        assert report["pue"] == PUE == 1.58
        assert report["carbon_intensity"] == CARBON_INTENSITY == 0.954
        assert report["energy_kwh"] == energy_kwh(STATIC_EN)
        assert report["co2e"] == co2e(energy_kwh(STATIC_EN))


class TestValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            EnergyInput(power_watts=0, hours=1)
        with pytest.raises(ValueError):
            EnergyInput(power_watts=-5, hours=1)
        with pytest.raises(ValueError):
            EnergyInput(power_watts=100, hours=-1)

    def test_negative_kwh_rejected(self):
        with pytest.raises(ValueError):
            co2e(-1.0)
