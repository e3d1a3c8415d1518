"""Energy and carbon accounting for training runs.

Draw and duration come from the hardware's spec sheet or a wall meter. The
datacenter overhead (PUE 1.58) and the grid carbon intensity (0.954 lb CO2e
per kWh) are fixed at the US-average figures of Strubell et al. 2019
(arXiv 1906.02243), so every run is costed on the same terms.
"""

import math

PUE = 1.58
CARBON_INTENSITY = 0.954


class EnergyInput:
    __slots__ = ("power_watts", "hours")

    def __init__(self, power_watts: float, hours: float):
        self.power_watts, self.hours = power_watts, hours
        if not (math.isfinite(power_watts) and power_watts > 0):
            raise ValueError(f"power_watts must be positive and finite, got {power_watts}")
        if not (math.isfinite(hours) and hours >= 0):
            raise ValueError(f"hours must be non-negative and finite, got {hours}")


def energy_kwh(inp: EnergyInput) -> float:
    return PUE * inp.hours * inp.power_watts / 1000.0


def co2e(kwh: float) -> float:
    if kwh < 0:
        raise ValueError(f"kwh must be non-negative, got {kwh}")
    return CARBON_INTENSITY * kwh


def footprint(inp: EnergyInput) -> dict:
    kwh = energy_kwh(inp)
    return {
        "power_watts": inp.power_watts,
        "hours": inp.hours,
        "pue": PUE,
        "carbon_intensity": CARBON_INTENSITY,
        "energy_kwh": kwh,
        "co2e": co2e(kwh),
    }


def footprint_ratio(numerator: EnergyInput, denominator: EnergyInput) -> dict:
    """Componentwise cost of one run relative to another."""
    den_kwh = energy_kwh(denominator)
    if denominator.hours == 0 or den_kwh == 0:
        raise ValueError("denominator run has a zero-valued component")
    return {
        "power_ratio": numerator.power_watts / denominator.power_watts,
        "hours_ratio": numerator.hours / denominator.hours,
        "kwh_ratio": energy_kwh(numerator) / den_kwh,
        "co2e_ratio": co2e(energy_kwh(numerator)) / co2e(den_kwh),
    }
