"""Experiment configuration files: INI key-value schema with SI-unit suffixes
in the key names, mirrored onto the typed parameter objects."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from .analysis import ProtocolParams, delta_c_from_pct, frames_for
from .simulator import Mode
from .traffic import (AlarmScenario, Deadlines, ExpDecayCorrelation,
                      RegularTrafficParams, SqrtCapCorrelation, UnitCorrelation)


class ConfigError(Exception):
    """Configuration problem; `category` is a stable machine-parsable tag."""

    def __init__(self, message: str, category: str = "config-invalid"):
        super().__init__(message)
        self.category = category


_REQUIRED = object()


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.replace(",", " ").split())


@dataclass(frozen=True)
class CellConfig:
    """Everything fixed about the cell: population, geometry, traffic,
    protocol parameters and deadlines."""

    n_stations: int
    radius_m: float
    traffic: RegularTrafficParams
    protocol: ProtocolParams
    deadlines: Deadlines


@dataclass(frozen=True)
class SimulationOptions:
    horizon_s: float = 300.0
    mode: Mode = Mode.ADAPTIVE
    delay_bin_s: float = 0.05
    alarm_prob_per_pool: float = 0.0
    bin_width_s: float = 0.005


@dataclass(frozen=True)
class SweepOptions:
    omega_values: tuple[int, ...]
    delta_c_pcts: tuple[float, ...]
    l1_frac: float | str
    l2_frac: float | str
    simulate_pools: int


@dataclass(frozen=True)
class CompareOptions:
    omega_values: tuple[int, ...]
    delta_c_pct: float


class Experiment:
    """Typed view over one parsed configuration file."""

    def __init__(self, parser: configparser.ConfigParser):
        self._cp = parser

    # -- low-level typed getters ------------------------------------------

    def _require(self, section: str) -> configparser.SectionProxy:
        if not self._cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")
        return self._cp[section]

    def _get(self, section: str, key: str, conv, default=_REQUIRED):
        if not self._cp.has_section(section) or key not in self._cp[section]:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            return default
        raw = self._cp[section][key]
        try:
            return conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for {section}.{key}: {raw!r} ({exc})") from exc

    def _float(self, section, key, default=_REQUIRED):
        return self._get(section, key, float, default)

    def _int(self, section, key, default=_REQUIRED):
        return self._get(section, key, int, default)

    def _str(self, section, key, default=_REQUIRED):
        return self._get(section, key, str, default)

    # -- typed sections ----------------------------------------------------

    def cell(self) -> CellConfig:
        self._require("cell")
        self._require("traffic")
        self._require("protocol")
        n = self._int("cell", "n_stations")
        r = self._float("cell", "radius_m")
        if n < 1 or r <= 0:
            raise ConfigError("cell.n_stations and cell.radius_m must be positive")

        t_ri = self._float("traffic", "t_ri_s")
        lambda_d = self._float("traffic", "lambda_d_per_s", 0.0)
        try:
            traffic = RegularTrafficParams.from_reporting_interval(t_ri, lambda_d)
        except ValueError as exc:
            raise ConfigError(f"invalid [traffic] section: {exc}") from exc

        omega = self._int("protocol", "omega")
        t_r = self._float("protocol", "t_r_s")
        rs = self._float("protocol", "rs_duration_s")
        pool = math.ceil(n / omega) if omega >= 1 else 0
        if self._cp.has_option("protocol", "delta_c_slots"):
            delta_c = self._int("protocol", "delta_c_slots")
        else:
            pct = self._float("protocol", "delta_c_pct")
            try:
                delta_c = delta_c_from_pct(pct, pool)
            except ValueError as exc:
                raise ConfigError(f"invalid protocol.delta_c_pct: {exc}") from exc
        l1 = self._int("protocol", "l1", None)
        l2 = self._int("protocol", "l2", None)
        try:
            if l1 is None or l2 is None:  # the 60/40 split of the group size
                d1, d2 = frames_for(omega, 0.6, 0.4)
                l1 = d1 if l1 is None else l1
                l2 = d2 if l2 is None else l2
            protocol = ProtocolParams(n=n, omega=omega, delta_c=delta_c, l1=l1,
                                      l2=l2, t_r=t_r, rs_duration=rs)
        except (ValueError, OverflowError) as exc:  # an omega past the float range
            raise ConfigError(f"invalid [protocol] section: {exc}") from exc

        tau_a = self._float("deadlines", "tau_a_s")
        tau_d = self._float("deadlines", "tau_d_s")
        tau_p = self._float("deadlines", "tau_p_s", t_ri)
        try:
            deadlines = Deadlines(tau_a=tau_a, tau_d=tau_d, tau_p=tau_p)
        except ValueError as exc:
            raise ConfigError(f"invalid [deadlines] section: {exc}") from exc

        return CellConfig(n_stations=n, radius_m=r, traffic=traffic,
                          protocol=protocol, deadlines=deadlines)

    def alarms(self) -> list[tuple[str, AlarmScenario]]:
        out = []
        for section in sorted(self._cp.sections()):
            if not section.startswith("alarm."):
                continue
            name = section.split(".", 1)[1]
            x = self._float(section, "epicenter_x_m", 0.0)
            y = self._float(section, "epicenter_y_m", 0.0)
            v = self._float(section, "speed_m_per_s")
            t_a = self._float(section, "event_time_s", 0.0)
            kind = self._str(section, "correlation").lower()
            try:  # the models, like the scenario, reject bad values with ValueError
                if kind == "unit":
                    corr = UnitCorrelation()
                elif kind == "expdecay":
                    corr = ExpDecayCorrelation(a=self._float(section, "decay_per_m"))
                elif kind == "sqrtcap":
                    corr = SqrtCapCorrelation(d_max=self._float(section, "d_max_m"))
                else:
                    raise ConfigError(
                        f"invalid value for {section}.correlation: {kind!r} "
                        "(expected unit, expdecay or sqrtcap)")
                out.append((name, AlarmScenario(epicenter=(x, y), v=v, t_a=t_a,
                                                correlation=corr)))
            except ValueError as exc:
                raise ConfigError(f"invalid [{section}] section: {exc}") from exc
        return out

    def p_h1(self) -> float:
        p = self._float("priors", "p_h1")
        if not 0 <= p <= 1:
            raise ConfigError("priors.p_h1 must lie in [0, 1]")
        return p

    def simulation(self) -> SimulationOptions:
        mode_raw = self._str("simulation", "mode", "adaptive").lower()
        try:
            mode = Mode.ADAPTIVE if mode_raw == "adaptive" else Mode(mode_raw)
        except ValueError as exc:
            raise ConfigError(f"invalid value for simulation.mode: {mode_raw!r}") from exc
        opts = SimulationOptions(
            horizon_s=self._float("simulation", "horizon_s", 300.0),
            mode=mode,
            delay_bin_s=self._float("simulation", "delay_bin_s", 0.05),
            alarm_prob_per_pool=self._float("simulation", "alarm_prob_per_pool", 0.0),
            bin_width_s=self._float("simulation", "bin_width_s", 0.005))
        for key in ("horizon_s", "delay_bin_s", "bin_width_s"):
            if not 0 < getattr(opts, key) < math.inf:
                raise ConfigError(f"simulation.{key} must be positive and finite")
        if not 0 <= opts.alarm_prob_per_pool <= 1:
            raise ConfigError("simulation.alarm_prob_per_pool must lie in [0, 1]")
        return opts

    def sweep_options(self) -> SweepOptions:
        self._require("sweep")

        def float_list(raw: str) -> tuple[float, ...]:
            return tuple(float(x) for x in raw.replace(",", " ").split())

        def frac(raw: str):
            return "search" if raw.strip().lower() == "search" else float(raw)

        return SweepOptions(
            omega_values=self._get("sweep", "omega_values", _int_list),
            delta_c_pcts=self._get("sweep", "delta_c_pcts", float_list),
            l1_frac=self._get("sweep", "l1_frac", frac, 0.6),
            l2_frac=self._get("sweep", "l2_frac", frac, 0.4),
            simulate_pools=self._int("sweep", "simulate_pools", 0))

    def compare_options(self) -> CompareOptions:
        self._require("compare")

        return CompareOptions(
            omega_values=self._get("compare", "omega_values", _int_list),
            delta_c_pct=self._float("compare", "delta_c_pct", 50.0))


def load_experiment(path: str) -> Experiment:
    # values are read literally: a '%' is data, not interpolation syntax
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"configuration file not found: {path}",
                          category="config-missing") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc.strerror}",
                          category="config-unreadable") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse configuration file {path}: {exc}") from exc
    return Experiment(parser)
