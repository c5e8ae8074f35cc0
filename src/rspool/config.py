"""Experiment configuration files: INI key-value schema with SI-unit suffixes
in the key names, mirrored onto the typed parameter objects."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .analysis import ProtocolParams, delta_c_from_pct, frames_for
from .optimizer import FRAME_SPLIT, SweepGrid, _check_omega_values
from .traffic import (AlarmScenario, Deadlines, ExpDecayCorrelation,
                      RegularTrafficParams, SqrtCapCorrelation, UnitCorrelation)


class ConfigError(Exception):
    """Configuration problem; `category` is a stable machine-parsable tag."""

    def __init__(self, message: str, category: str = "config-invalid"):
        super().__init__(message)
        self.category = category


_REQUIRED = object()


def _list_of(conv):
    """A parser of numbers separated by commas or blanks, each read by `conv`."""
    return lambda raw: tuple(conv(x) for x in raw.replace(",", " ").split())


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
    alarm_prob_per_pool: float = 0.0


@dataclass(frozen=True)
class CompareOptions:
    omega_values: tuple[int, ...]
    delta_c_pct: float

    def __post_init__(self):
        _check_omega_values(self.omega_values)
        if not 0 < self.delta_c_pct <= 100:
            raise ValueError("delta_c_pct must lie in (0, 100]")


class Experiment:
    """Typed view over one configuration file's {section: {key: value}}."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self._sections = sections

    # -- low-level typed getters ------------------------------------------

    def _require(self, section: str) -> None:
        if section not in self._sections:
            raise ConfigError(f"missing required section [{section}]")

    def _get(self, section: str, key: str, conv, default=_REQUIRED):
        raw = self._sections.get(section, {}).get(key)
        if raw is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            return default
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

    def population(self) -> tuple[int, float]:
        """The [cell] section's station count and radius (metres)."""
        self._require("cell")
        n = self._int("cell", "n_stations")
        r = self._float("cell", "radius_m")
        if not (n >= 1 and sys.float_info.min <= r < math.inf):
            raise ConfigError("cell.n_stations and cell.radius_m must be positive "
                              "(the radius finite and not subnormal)")
        return n, r

    def cell(self) -> CellConfig:
        n, r = self.population()
        self._require("traffic")
        self._require("protocol")
        if "mode" in self._sections.get("simulation", {}):
            raise ConfigError("simulation.mode is no longer read: the naive scheme "
                              "is [protocol] delta_c_slots = 1")

        t_ri = self._float("traffic", "t_ri_s")
        lambda_d = self._float("traffic", "lambda_d_per_s", 0.0)
        try:
            traffic = RegularTrafficParams(t_ri, lambda_d)
        except ValueError as exc:
            raise ConfigError(f"invalid [traffic] section: {exc}") from exc

        omega = self._int("protocol", "omega")
        t_r = self._float("protocol", "t_r_s")
        rs = self._float("protocol", "rs_duration_s")
        pool = math.ceil(n / omega) if omega >= 1 else 0
        if {"delta_c_slots", "delta_c_pct"} <= self._sections["protocol"].keys():
            raise ConfigError("protocol.delta_c_slots and protocol.delta_c_pct "
                              "both set the threshold: keep one")
        if "delta_c_slots" in self._sections["protocol"]:
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
            if l1 is None or l2 is None:
                d1, d2 = frames_for(omega, *FRAME_SPLIT)
                l1, l2 = (d1 if l1 is None else l1), (d2 if l2 is None else l2)
            protocol = ProtocolParams(n=n, omega=omega, delta_c=delta_c, l1=l1,
                                      l2=l2, t_r=t_r, rs_duration=rs)
        except (ValueError, OverflowError) as exc:  # an omega past the float range
            raise ConfigError(f"invalid [protocol] section: {exc}") from exc

        tau_a = self._float("deadlines", "tau_a_s")
        try:
            deadlines = Deadlines(tau_a=tau_a)
        except ValueError as exc:
            raise ConfigError(f"invalid [deadlines] section: {exc}") from exc

        return CellConfig(n_stations=n, radius_m=r, traffic=traffic,
                          protocol=protocol, deadlines=deadlines)

    def alarms(self) -> list[tuple[str, AlarmScenario]]:
        out = []
        for section in sorted(self._sections):
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
        default = SimulationOptions()
        opts = SimulationOptions(
            horizon_s=self._float("simulation", "horizon_s", default.horizon_s),
            alarm_prob_per_pool=self._float("simulation", "alarm_prob_per_pool",
                                            default.alarm_prob_per_pool))
        if not sys.float_info.min <= opts.horizon_s < math.inf:
            raise ConfigError("simulation.horizon_s must be a positive, finite, normal float")
        if not 0 <= opts.alarm_prob_per_pool <= 1:
            raise ConfigError("simulation.alarm_prob_per_pool must lie in [0, 1]")
        return opts

    def sweep_options(self) -> SweepGrid:
        self._require("sweep")

        def frac(raw: str):
            return "search" if raw.strip().lower() == "search" else float(raw)

        try:  # the grid rejects bad axes with ValueError, naming the key
            return SweepGrid(
                omega_values=self._get("sweep", "omega_values", _list_of(int)),
                delta_c_pcts=self._get("sweep", "delta_c_pcts", _list_of(float)),
                l1_frac=self._get("sweep", "l1_frac", frac, FRAME_SPLIT[0]),
                l2_frac=self._get("sweep", "l2_frac", frac, FRAME_SPLIT[1]),
                simulate_pools=self._int("sweep", "simulate_pools", 0))
        except ValueError as exc:
            raise ConfigError(f"invalid [sweep] section: {exc}") from exc

    def compare_options(self) -> CompareOptions:
        self._require("compare")
        try:
            return CompareOptions(
                omega_values=self._get("compare", "omega_values", _list_of(int)),
                delta_c_pct=self._float("compare", "delta_c_pct", 50.0))
        except ValueError as exc:
            raise ConfigError(f"invalid [compare] section: {exc}") from exc


def _drop_comment(line: str) -> str:
    """The line up to its comment: as the standard library's INI parser
    does, try the k-th ';' and '#' together for k = 1, 2, ... and cut at
    the first that opens the line or follows whitespace."""
    at = {c: -1 for c in ";#" if c in line}
    while at:
        at = {c: i for c in at if (i := line.find(c, at[c] + 1)) >= 0}
        starts = [i for i in at.values() if i == 0 or line[i - 1].isspace()]
        if starts:
            return line[:min(starts)]
    return line


def parse_ini(text: str) -> dict[str, dict[str, str]]:
    """{section: {key: value}} of an INI text, read as the standard library's
    parser reads it with ';' and '#' inline comments and no interpolation:
    keys lower-cased and split from their stripped values at the first '='
    or ':'. A line before any header, a repeated section or key, a line with
    no key, a [DEFAULT] section and a continuation line (deeper than its
    key's line) raise ValueError naming the line."""
    sections: dict[str, dict[str, str]] = {}
    section = None
    key_indent = None  # a deeper line after a key line would continue its value

    def bad(problem: str) -> ValueError:
        return ValueError(f"line {lineno}: {problem}: {line.strip()!r}")

    for lineno, line in enumerate(text.split("\n"), 1):
        value = _drop_comment(line).strip()
        if not value:
            continue
        if key_indent is not None and len(line) - len(line.lstrip()) > key_indent:
            raise bad("a continuation line (each value fits on its key's line)")
        end = value.rfind("]")
        if value[0] == "[" and end >= 2:  # text after the last ']' is dropped
            name = value[1:end]
            if name == "DEFAULT" or name in sections:
                raise bad("a [DEFAULT] section" if name == "DEFAULT" else "a repeated section")
            section = sections[name] = {}
            key_indent = None
            continue
        if section is None:
            raise bad("a line before the first [section] header")
        cut = len(value.split("=", 1)[0].split(":", 1)[0])  # at the first '=' or ':'
        if cut in (0, len(value)):
            raise bad("not a [section] header or a key = value line")
        key = value[:cut].rstrip().lower()
        if key in section:
            raise bad(f"key {key!r} repeated")
        section[key] = value[cut + 1:].strip()
        key_indent = len(line) - len(line.lstrip())
    return sections


def load_experiment(path: str) -> Experiment:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return Experiment(parse_ini(fh.read()))
    except FileNotFoundError as exc:
        raise ConfigError(f"configuration file not found: {path}",
                          category="config-missing") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file {path}: {exc.strerror}",
                          category="config-unreadable") from exc
    except ValueError as exc:  # not UTF-8, or not the INI dialect parse_ini reads
        raise ConfigError(f"cannot parse configuration file {path}: {exc}") from exc
