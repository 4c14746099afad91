"""Line-oriented job configuration.

Format: `key = value` lines, `#` comments, blank lines ignored, and
`[kind name]` section headers for named objects.  Kinds: vector,
multivector, subsurface, boundingpair, plus a bare [args] section whose
keys are handed to the command.  Vectors and multivectors take either
`coeffs = ...` (dense, lexicographic basis-tuple order) or `expr = ...`
in the canonical text syntax.  Section bodies may reference previously
named objects and bare basis labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .exterior import Multivector, SymplecticSpace
from .h3model import DEFAULT_KAPPA2, TorelliParams
from .johnson import (BoundingPairSpec, InvalidBoundingPair, InvalidSubsurface,
                      SubsurfaceSpec, builtin_fixture)
from .render import ParseError, parse_multivector, parse_rational

_KINDS = ("vector", "multivector", "subsurface", "boundingpair", "args")
ARG_KEYS = ("input", "form", "left", "right", "pair", "subsurface", "top", "rounds")


class ConfigError(ValueError):
    """Malformed or inconsistent job configuration."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass
class JobConfig:
    """Everything a single CLI run needs, fully resolved."""

    command: str | None = None
    seed: int = 0
    kappa1: Fraction = Fraction(0)
    kappa2: Fraction = DEFAULT_KAPPA2
    space: SymplecticSpace | None = None
    vectors: dict[str, Multivector] = field(default_factory=dict)
    multivectors: dict[str, Multivector] = field(default_factory=dict)
    subsurfaces: dict[str, SubsurfaceSpec] = field(default_factory=dict)
    pairs: dict[str, BoundingPairSpec] = field(default_factory=dict)
    args: dict[str, str] = field(default_factory=dict)
    arg_lines: dict[str, int] = field(default_factory=dict)

    @property
    def genus(self) -> int | None:
        return self.space.genus if self.space is not None else None

    @property
    def params(self) -> TorelliParams:
        return TorelliParams(self.kappa1, self.kappa2)

    def require_space(self) -> SymplecticSpace:
        if self.space is None:
            raise ConfigError("no genus given (set `genus = ...` or use a fixture)")
        return self.space

    def table(self, kind: str) -> dict:
        """The named objects of one section kind."""
        return {"vector": self.vectors, "multivector": self.multivectors,
                "subsurface": self.subsurfaces, "boundingpair": self.pairs}[kind]

    def arg(self, key: str) -> str:
        """The [args] entry `key`, which the command cannot run without."""
        if key not in self.args:
            raise ConfigError(f"command {self.command!r} needs an [args] entry {key!r}")
        return self.args[key]

    def arg_error(self, key: str, message: str) -> ConfigError:
        """A ConfigError about [args] entry `key`, at its line when it came from a file."""
        return ConfigError(message, self.arg_lines.get(key))

    def named(self, key: str, kind: str):
        """(name, object) for the [args] entry `key` naming an object of `kind`."""
        name = self.arg(key)
        table = self.table(kind)
        if name not in table:
            raise self.arg_error(key, f"unknown {kind} {name!r} (from args.{key})")
        return name, table[name]


def config_from_fixture(name: str) -> JobConfig:
    """Seed a JobConfig with a built-in fixture's named objects."""
    try:
        fx = builtin_fixture(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = JobConfig(space=fx.space)
    cfg.vectors.update(fx.vectors)
    cfg.multivectors.update(fx.multivectors)
    cfg.subsurfaces.update(fx.subsurfaces)
    cfg.pairs.update(fx.pairs)
    cfg.args.update(fx.defaults)
    return cfg


def _split_sections(text: str):
    """Line pass: yields (None, key, value, lineno) and section dicts."""
    top: list[tuple[str, str, int]] = []
    sections: list[dict] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", lineno)
            header = line[1:-1].split()
            if header == ["args"]:
                current = {"kind": "args", "name": None, "lineno": lineno, "items": []}
            elif len(header) == 2 and header[0] in _KINDS and header[0] != "args":
                current = {"kind": header[0], "name": header[1], "lineno": lineno,
                           "items": []}
            else:
                raise ConfigError(f"bad section header [{' '.join(header)}]", lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if current is None:
            top.append((key, value, lineno))
        else:
            current["items"].append((key, value, lineno))
    return top, sections


def _unique_items(items, kind, allowed, repeatable=()):
    """Section items as {key: [(value, lineno), ...]}; duplicate or unknown keys fail."""
    out = {}
    for key, value, ln in items:
        if key in out and key not in repeatable:
            raise ConfigError(f"duplicate key {key!r}", ln)
        out.setdefault(key, []).append((value, ln))
    unknown = sorted(set(out) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {kind} section",
                          out[unknown[0]][0][1])
    return out


def _parse_int(value: str, lineno: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {value!r}", lineno) from None


def _parse_rational(value: str, lineno: int, what: str) -> Fraction:
    try:
        return parse_rational(value)
    except ParseError:
        raise ConfigError(f"{what} must be a rational, got {value!r}", lineno) from None


def _is_basis_label(space: SymplecticSpace, name: str) -> bool:
    try:
        space.index(name)
        return True
    except ValueError:
        return False


def _resolve_vector(cfg: JobConfig, token: str, lineno: int) -> Multivector:
    token = token.strip()
    if token in cfg.vectors:
        return cfg.vectors[token]
    try:
        return parse_multivector(cfg.require_space(), token, 1)
    except ParseError as exc:
        raise ConfigError(f"cannot resolve vector {token!r}: {exc}", lineno) from None


def _coeff_list(value: str, lineno: int) -> list[Fraction]:
    parts = [p for p in value.replace(",", " ").split() if p]
    return [_parse_rational(p, lineno, "coefficient") for p in parts]


def _build_multivector(cfg, name, items, lineno, kind="multivector"):
    """A multivector section, or a vector section (degree 1, no degree key)."""
    space = cfg.require_space()
    vector = kind == "vector"
    allowed = ("coeffs", "expr") if vector else ("coeffs", "expr", "degree")
    keys = _unique_items(items, kind, allowed)
    degree = 1 if vector else None
    if "degree" in keys:
        value, ln = keys["degree"][0]
        degree = _parse_int(value, ln, "degree")
        if degree not in (1, 2, 3):
            raise ConfigError(f"degree must be 1, 2 or 3, got {degree}", ln)
    if ("coeffs" in keys) == ("expr" in keys):
        raise ConfigError(f"{kind} {name!r} needs exactly one of coeffs/expr", lineno)
    if "coeffs" in keys:
        if degree is None:
            raise ConfigError(f"{kind} {name!r} with coeffs needs a degree", lineno)
        value, ln = keys["coeffs"][0]
        coeffs = _coeff_list(value, ln)
        tuples = space.basis_tuples(degree)
        if len(coeffs) != len(tuples):
            raise ConfigError(
                f"{kind} {name!r} needs {len(tuples)} coefficients, got {len(coeffs)}", ln)
        return Multivector(space, degree,
                           {t: c for t, c in zip(tuples, coeffs) if c})
    value, ln = keys["expr"][0]
    try:
        return parse_multivector(space, value, degree=degree)
    except ParseError as exc:
        raise ConfigError(str(exc), ln) from None


def _build_subsurface(cfg, name, items, lineno):
    keys = _unique_items(items, "subsurface", ("boundary", "pair"), repeatable=("pair",))
    if "boundary" not in keys:
        raise ConfigError(f"subsurface {name!r} needs a boundary", lineno)
    bval, bln = keys["boundary"][0]
    d = _resolve_vector(cfg, bval, bln)
    pairs = []
    for value, ln in keys.get("pair", []):
        halves = value.split(",")
        if len(halves) != 2:
            raise ConfigError(f"pair needs two comma-separated vectors, got {value!r}", ln)
        pairs.append((_resolve_vector(cfg, halves[0], ln),
                      _resolve_vector(cfg, halves[1], ln)))
    try:
        return SubsurfaceSpec(d, pairs)
    except InvalidSubsurface as exc:
        raise ConfigError(f"subsurface {name!r}: {exc}", lineno) from exc


def _build_boundingpair(cfg, name, items, lineno):
    keys = _unique_items(items, "boundingpair", ("side1", "side2"))
    sides = []
    for key in ("side1", "side2"):
        if key not in keys:
            raise ConfigError(f"boundingpair {name!r} needs {key}", lineno)
        value, ln = keys[key][0]
        value = value.strip()
        if value not in cfg.subsurfaces:
            raise ConfigError(f"unknown subsurface {value!r}", ln)
        sides.append(cfg.subsurfaces[value])
    try:
        return BoundingPairSpec(*sides)
    except InvalidBoundingPair as exc:
        raise ConfigError(f"boundingpair {name!r}: {exc}", lineno) from exc


def _register(cfg: JobConfig, kind: str, name: str, value, lineno: int):
    table = cfg.table(kind)
    space = cfg.require_space()
    if kind == "vector" and _is_basis_label(space, name):
        raise ConfigError(f"name {name!r} shadows a basis label", lineno)
    all_names = (set(cfg.vectors) | set(cfg.multivectors)
                 | set(cfg.subsurfaces) | set(cfg.pairs))
    if name in all_names and name not in table:
        raise ConfigError(f"name {name!r} already used for another kind", lineno)
    table[name] = value


def set_top_level(cfg: JobConfig, key: str, value, lineno: int | None = None) -> None:
    """Validate one top-level setting and store it on cfg.

    Config lines and command-line flags both come through here, so a
    flag obeys the same rules and gets the same messages as its line.
    """
    if key == "command":
        cfg.command = value.strip()
    elif key == "seed":
        cfg.seed = _parse_int(value, lineno, "seed")
    elif key == "genus":
        genus = _parse_int(value, lineno, "genus")
        if cfg.genus is not None and cfg.genus != genus:
            raise ConfigError(
                f"genus {genus} conflicts with already-set genus {cfg.genus}", lineno)
        try:
            cfg.space = SymplecticSpace(genus)
        except ValueError as exc:
            raise ConfigError(str(exc), lineno) from None
    elif key in ("kappa1", "kappa2"):
        q = _parse_rational(value, lineno, key)
        try:
            TorelliParams(**{key: q})
        except ValueError as exc:
            raise ConfigError(str(exc), lineno) from None
        setattr(cfg, key, q)
    else:
        raise ConfigError(f"unknown top-level key {key!r}", lineno)


def parse_config(text: str, base: JobConfig | None = None) -> JobConfig:
    """Parse config text, optionally extending a fixture-seeded base."""
    cfg = base if base is not None else JobConfig()
    top, sections = _split_sections(text)
    for key, value, lineno in top:
        set_top_level(cfg, key, value, lineno)
    builders = {"vector": partial(_build_multivector, kind="vector"),
                "multivector": _build_multivector,
                "subsurface": _build_subsurface, "boundingpair": _build_boundingpair}
    for section in sections:
        kind, name, lineno = section["kind"], section["name"], section["lineno"]
        if kind != "args":
            value = builders[kind](cfg, name, section["items"], lineno)
            _register(cfg, kind, name, value, lineno)
    args = [item for section in sections if section["kind"] == "args"
            for item in section["items"]]
    for key, [(value, ln)] in _unique_items(args, "args", ARG_KEYS).items():
        cfg.args[key] = value.strip()
        cfg.arg_lines[key] = ln
    return cfg
