"""Energy and carbon accounting for training runs.

Draw and duration come from the hardware's spec sheet or a wall meter; the
defaults for datacenter overhead (PUE 1.58) and grid carbon intensity
(0.954 lb CO2e per kWh) follow the figures commonly used for US averages.
"""

DEFAULT_PUE = 1.58
DEFAULT_CARBON_INTENSITY = 0.954


class EnergyInput:
    __slots__ = ("power_watts", "hours", "pue", "carbon_intensity")

    def __init__(self, power_watts: float, hours: float, pue: float = DEFAULT_PUE,
                 carbon_intensity: float = DEFAULT_CARBON_INTENSITY):
        self.power_watts, self.hours, self.pue = power_watts, hours, pue
        self.carbon_intensity = carbon_intensity
        if power_watts <= 0:
            raise ValueError(f"power_watts must be positive, got {power_watts}")
        if hours < 0:
            raise ValueError(f"hours must be non-negative, got {hours}")
        if pue <= 0:
            raise ValueError(f"pue must be positive, got {pue}")
        if carbon_intensity <= 0:
            raise ValueError(f"carbon_intensity must be positive, got {carbon_intensity}")


def energy_kwh(inp: EnergyInput) -> float:
    return inp.pue * inp.hours * inp.power_watts / 1000.0


def co2e(kwh: float, carbon_intensity: float = DEFAULT_CARBON_INTENSITY) -> float:
    if kwh < 0:
        raise ValueError(f"kwh must be non-negative, got {kwh}")
    return carbon_intensity * kwh


def footprint(inp: EnergyInput) -> dict:
    kwh = energy_kwh(inp)
    return {
        "power_watts": inp.power_watts,
        "hours": inp.hours,
        "pue": inp.pue,
        "carbon_intensity": inp.carbon_intensity,
        "energy_kwh": kwh,
        "co2e": co2e(kwh, inp.carbon_intensity),
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
        "co2e_ratio": co2e(energy_kwh(numerator), numerator.carbon_intensity)
                      / co2e(den_kwh, denominator.carbon_intensity),
    }
