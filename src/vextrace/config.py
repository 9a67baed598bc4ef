"""Flat key/value problem configs with section headers.

Format: ``[section]`` headers, ``key = value`` lines, ``#`` comments.
Repeated keys accumulate in order (used for boundary pieces).  Example::

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
loop order; ``gamma`` lists piece indices carrying the zero condition.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

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


def parse_config_text(text):
    """Parse into {section: {key: [values...]}} preserving repeat order."""
    sections = {}
    for section, key, value in _config_lines(text):
        entries = sections.setdefault(section, {})
        if key is not None:
            entries.setdefault(key, []).append(value)
    return sections


def _finite(x, section, key):
    """x itself; nan and +-inf are config errors, since no setting takes them."""
    if not math.isfinite(x):
        raise ConfigError(f"[{section}] {key}: not a finite number")
    return x


def _integral(x, section, key):
    """int(x) for a whole number x; a fraction is a config error, not truncated."""
    if not x.is_integer():
        raise ConfigError(f"[{section}] {key}: not an integer: {x!r}")
    return int(x)


_SOLVER_LIMITS = {
    "max_iter": (lambda n: n >= 1, "must be at least 1"),
    "tol": (lambda x: math.isfinite(x) and x > 0, "must be a finite number > 0"),
    "radii": (lambda rs: all(math.isfinite(x) and x > 0 for x in rs),
              "must be finite numbers > 0"),
}


def check_solver_limit(key, value, name):
    """value, once it is valid for the solver option key (max_iter >= 1,
    tol finite and > 0, each of the radii finite and > 0); name is the
    config key or flag an error names."""
    ok, rule = _SOLVER_LIMITS[key]
    if not ok(value):
        raise ConfigError(f"{name}: {rule}, got {value!r}")
    return value


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


@dataclass
class ProblemConfig:
    """Typed access over the parsed sections, with the raw text hash."""

    sections: dict
    text: str = ""
    path: str | None = None

    @classmethod
    def from_path(cls, path):
        with open(path) as fh:
            text = fh.read()
        return cls(parse_config_text(text), text=text, path=str(path))

    @classmethod
    def from_text(cls, text):
        return cls(parse_config_text(text), text=text)

    @property
    def config_hash(self):
        return hashlib.sha256(self.text.encode()).hexdigest()

    # -- raw getters ---------------------------------------------------------

    def _get(self, section, key, default=None, required=False):
        vals = self.sections.get(section, {}).get(key)
        if not vals:
            if required:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        return vals[-1]

    def get_str(self, section, key, default=None, required=False):
        return self._get(section, key, default, required)

    def get_float(self, section, key, default=None, required=False):
        v = self._get(section, key, default, required)
        if v is default:
            return default
        try:
            x = float(v)
        except (TypeError, ValueError):
            raise ConfigError(f"[{section}] {key}: not a number: {v!r}")
        return _finite(x, section, key)

    def get_int(self, section, key, default=None):
        v = self.get_float(section, key, default)
        return v if v is default else _integral(v, section, key)

    def get_floats(self, section, key, default=()):
        v = self._get(section, key)
        if v is None:
            return list(default)
        if not v:
            return []
        try:
            xs = [float(x) for x in v.split()]
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected numbers: {v!r}")
        return [_finite(x, section, key) for x in xs]

    def get_ints(self, section, key, default=()):
        return [_integral(x, section, key) for x in self.get_floats(section, key, default)]

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
            try:
                nums = [float(x) for x in spec.split()]
            except ValueError:
                raise ConfigError(f"[domain] {kind}: bad numbers: {spec!r}")
            nums = [_finite(x, "domain", kind) for x in nums]
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
        h = self.get_float("domain", "h", required=True)
        if h <= 0:
            raise ConfigError("[domain] h must be positive")
        gamma = self.get_ints("domain", "gamma", default=())
        return mesh_domain(self.build_loop(), h, gamma_arcs=gamma)

    def build_exponents(self):
        n = self.get_int("exponents", "n", default=2)
        p_text = self.get_str("exponents", "p_expr", required=True)
        r_text = self.get_str("exponents", "r_expr", required=True)
        try:
            p = ExponentField.from_text(p_text, n)
            r = ExponentField.from_text(r_text, n)
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

    def solver_options(self):
        return {
            "init": parse_init(self.get_str("solver", "init", default="constant")),
            "max_iter": check_solver_limit(
                "max_iter", self.get_int("solver", "max_iter", default=200), "[solver] max_iter"
            ),
            "tol": check_solver_limit(
                "tol", self.get_float("solver", "tol", default=1e-6), "[solver] tol"
            ),
            "radii": check_solver_limit(
                "radii", self.get_floats("solver", "radii", default=()), "[solver] radii"
            ),
            "n_random": self.get_int("solver", "n_random", default=3),
        }


def hash_of_args(args_repr):
    return hashlib.sha256(args_repr.encode()).hexdigest()
