"""Flat key/value problem configs, and SETTINGS, the one table of every
setting a config key or a CLI flag gives.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments.  A
section or key SETTINGS does not list is a config error.  Repeated keys
keep the last value, but for the boundary pieces, which accumulate in
order.  Example::

    [domain]
    arc = 0 0 1 0 6.283185307179586
    h = 0.05
    gamma =

    [exponents]
    n = 2
    p_expr = 1.5
    r_expr = 2

    [solver]
    init = constant
    max_iter = 200
    tol = 1e-6
    radii = 0.3 1.0

Boundary pieces: ``segment = x0 y0 x1 y1`` or ``arc = cx cy R a0 a1`` in
loop order; ``gamma`` lists piece indices carrying the zero condition.  A
flag beats the config, and the config beats the table default.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .exponents import ExponentField
from .geometry import BoundaryLoop, CircularArc, Segment, mesh_domain


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _config_lines(text):
    """(section, key, value) per setting in file order; a header gives key None."""
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            yield current, None, None
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        yield current, key.strip(), value.strip()


# -- parse functions: (text, name) -> value, name being "[section] key" or the flag


def _text(text, name):
    return text


def _words(text, name):
    return text.split()


def _number(text, name):
    """A float; nan and +-inf are config errors, since no setting takes them."""
    try:
        x = float(text)
    except ValueError:
        raise ConfigError(f"{name}: not a number: {text!r}")
    if not math.isfinite(x):
        raise ConfigError(f"{name}: not a finite number")
    return x


def _integer(text, name):
    """A whole number; a fraction is a config error, not truncated."""
    x = _number(text, name)
    if not x.is_integer():
        raise ConfigError(f"{name}: not an integer: {x!r}")
    return int(x)


def _numbers(text, name):
    """Finite numbers separated by whitespace.  A flag list (--radii) is
    comma-separated, and its key's rule rules on nan and inf."""
    if not name.startswith("--"):
        return [_number(x, name) for x in text.split()]
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{name}: expected comma-separated numbers, got {text!r}")


def _integers(text, name):
    return [_integer(x, name) for x in text.split()]


def parse_init(text):
    """Solver start from its text form: constant | random | multistart |
    'bubble x y lam' (the latter as ('bubble', (x, y), lam))."""
    parts = text.split()
    if parts[:1] == ["bubble"]:
        try:
            x, y, lam = map(float, parts[1:])
        except ValueError:
            raise ConfigError(f"init {text!r}: bubble needs 'bubble x y lam'")
        if not (all(map(math.isfinite, (x, y, lam))) and lam > 0):
            raise ConfigError(f"init {text!r}: bubble needs finite x, y and lam > 0")
        return ("bubble", (x, y), lam)
    if text not in ("constant", "random", "multistart"):
        raise ConfigError(
            f"init {text!r}: expected constant, random, multistart or 'bubble x y lam'"
        )
    return text


# -- the table -------------------------------------------------------------------

REQUIRED = object()  # the default of a key that must be given
CHECKS = ("global", "local", "existence", "compactness")  # of [conditions] checks


class Setting(NamedTuple):
    """A key's parse, its default (None: optional without one) and an
    optional check with the rule its error states."""

    parse: Callable
    default: object = REQUIRED
    check: Callable | None = None
    rule: str = ""


# Taylor data of p, r and the weight at the base point (expansion coefficients)
_INPUTS = {"f0": Setting(_number, 1.0)} | {
    k: Setting(_number, 0.0)
    for k in ("dtf0", "dtp0", "dttp0", "lap_y_p0", "lap_r0", "H", "hbar")
}
EXPANSION_INPUTS = tuple(_INPUTS)

SETTINGS = {
    "domain": {
        # the boundary pieces: build_loop reads every repeat, in loop order
        "segment": Setting(_text, None),
        "arc": Setting(_text, None),
        "h": Setting(_number, REQUIRED, lambda h: h > 0, "must be positive"),
        "gamma": Setting(_integers, ()),
    },
    "exponents": {
        "n": Setting(_integer, 2),
        "p_expr": Setting(_text),
        "r_expr": Setting(_text),
    },
    "solver": {
        "init": Setting(lambda text, name: parse_init(text), "constant"),
        "max_iter": Setting(_integer, 200, lambda n: n >= 1, "must be at least 1"),
        "tol": Setting(_number, 1e-6, lambda x: x > 0, "must be a finite number > 0"),
        "radii": Setting(_numbers, (), lambda rs: all(math.isfinite(x) and x > 0 for x in rs),
                         "must be finite numbers > 0"),
        "n_random": Setting(_integer, 3, lambda n: n >= 0, "must be at least 0"),
    },
    "conditions": {
        "checks": Setting(_words, ("global",), lambda cs: bool(cs) and set(cs) <= set(CHECKS),
                          "must name one or more of " + ", ".join(CHECKS)),
        "x0": Setting(_numbers, ()),
        "K_points": Setting(_numbers, ()),
        "K_arcs": Setting(_integers, ()),
        "s": Setting(_number, 1.0), "C": Setting(_number, 8.0), "r0": Setting(_number, 0.3),
        "phi_n": Setting(_integer, 1),
    },
    "norm": {
        "samples_csv": Setting(_text),
        "n": Setting(_integer, 2),
        "kind": Setting(_text, "lebesgue"),
        "p_expr": Setting(_text),
    },
    "halfspace": {
        "N": Setting(_integer, None),
        "p": Setting(_number, None),
        **_INPUTS,
    },
    "expand": {
        "N": Setting(_integer, 2),
        "p": Setting(_number),
        "model": Setting(_text, "disk"),
        "epsilons": Setting(_numbers, (0.08, 0.056, 0.04, 0.028, 0.02, 0.014, 0.01)),
        **{k: s for k, s in _INPUTS.items() if k != "hbar"},  # hbar is H on a model
        "H": Setting(_number, None),  # None: the model's curvature
    },
}

# the flag spelling of each key a flag can set, per section
FLAGS = {
    "halfspace": {"N": "--N", "p": "--p"} | {k: f"--{k}" for k in EXPANSION_INPUTS},
    "solver": {"init": "--init", "max_iter": "--max-iter", "tol": "--tol", "radii": "--radii"},
}


def parse_config_text(text):
    """Parse into {section: {key: value}}, the last of repeated keys winning;
    a section or key that SETTINGS does not list is a config error."""
    sections = {}
    for section, key, value in _config_lines(text):
        if section not in SETTINGS:
            raise ConfigError(f"unknown section [{section}]")
        entries = sections.setdefault(section, {})
        if key is not None:
            if key not in SETTINGS[section]:
                raise ConfigError(f"[{section}] unknown key {key!r}")
            entries[key] = value
    return sections


@dataclass
class ProblemConfig:
    """Settings and builders over the parsed sections, with the raw text hash."""

    sections: dict
    text: str = ""

    @classmethod
    def from_path(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())

    @classmethod
    def from_text(cls, text):
        return cls(parse_config_text(text), text=text)

    @property
    def config_hash(self):
        return hashlib.sha256(self.text.encode()).hexdigest()

    def settings(self, section, overrides=None):
        """{key: value} for every key of section, parsed and checked.

        overrides maps a key to its flag's text, None when not given (the
        vars of the parsed flags): a flag beats the config, and the config
        beats the table default.
        """
        given = self.sections.get(section, {})
        flags = FLAGS.get(section, {})
        out = {}
        for key, setting in SETTINGS[section].items():
            if key in flags and (overrides or {}).get(key) is not None:
                name, text = flags[key], overrides[key]
            elif key in given:
                name, text = f"[{section}] {key}", given[key]
            elif setting.default is REQUIRED:
                raise ConfigError(f"missing [{section}] {key}")
            else:
                out[key] = setting.default
                continue
            value = setting.parse(text, name)
            if setting.check is not None and not setting.check(value):
                raise ConfigError(f"{name}: {setting.rule}, got {value!r}")
            out[key] = value
        return out

    # -- builders --------------------------------------------------------------

    def build_loop(self):
        order = [
            (key, spec) for section, key, spec in _config_lines(self.text)
            if section == "domain" and key in ("segment", "arc")
        ]
        if not order:
            raise ConfigError("missing [domain] segment/arc entries")
        pieces = []
        for kind, spec in order:
            nums = _numbers(spec, f"[domain] {kind}")
            if kind == "segment":
                if len(nums) != 4:
                    raise ConfigError(f"[domain] segment needs x0 y0 x1 y1: {spec!r}")
                pieces.append(Segment((nums[0], nums[1]), (nums[2], nums[3])))
            else:
                if len(nums) != 5:
                    raise ConfigError(f"[domain] arc needs cx cy R a0 a1: {spec!r}")
                pieces.append(CircularArc((nums[0], nums[1]), nums[2], nums[3], nums[4]))
        return BoundaryLoop(tuple(pieces))

    def build_domain(self):
        d = self.settings("domain")
        return mesh_domain(self.build_loop(), d["h"], gamma_arcs=d["gamma"])

    def build_exponents(self):
        e = self.settings("exponents")
        try:
            p = ExponentField.from_text(e["p_expr"], e["n"])
            r = ExponentField.from_text(e["r_expr"], e["n"])
        except ValueError as err:
            raise ConfigError(f"[exponents]: {err}")
        return p, r

    def build_problem(self):
        from .solver import DiscreteTraceProblem

        domain = self.build_domain()
        p, r = self.build_exponents()
        if p.ambient_dimension != 2:
            raise ConfigError(
                f"[exponents] n: meshes are planar, so n must be 2, got {p.ambient_dimension}"
            )
        try:
            return DiscreteTraceProblem(domain, p, r)
        except ValueError as err:
            raise ConfigError(f"problem assembly: {err}")


def hash_of_args(args_repr):
    return hashlib.sha256(args_repr.encode()).hexdigest()
