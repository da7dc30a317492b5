"""Plain-text key=value scenario configuration.

Files hold one `key=value` pair per line; `#` begins a comment and blank
lines are skipped.  Values never contain whitespace (lists are
comma-separated), so the same `key=value` tokens can be passed on the
command line to override file entries.

Recognized keys (any other key, in a file or an override, raises
ConfigError; a command-line override that the chosen command does not
read raises ConfigError too, while a file may hold keys for several
commands):

  shape          a key of SHAPES, the table of catalog shapes below
  r, rho, t0, amplitude, eps, wave, perturbation (e.g. Y2,0)
  warping        product | sphere | hyperbolic | euclidean | cosh
  warping_poly   comma-separated polynomial coefficients (low to high),
                 overrides a file's `warping` (and refuses an override)
  warping_interval  comma pair, e.g. -1,1 (required with warping_poly)
  resolutions    comma list of square grid sizes, at least two, strictly
                 increasing, each >= 8, e.g. 32,64,128
  resolution     single square grid size (balance-bound)
  rs             comma list of flat-torus radii (sweep)
  amplitudes     comma list of graph amplitudes (sweep)
  count          number of eigenvalues (slice-spectrum)
  seed           eigensolver seed, a nonnegative integer
"""

from __future__ import annotations

from . import catalog, warping as wp
from .errors import ConfigError, DomainError

__all__ = [
    "KEYS",
    "SHAPES",
    "Config",
    "parse_kv_text",
    "load_config_file",
    "merge_overrides",
    "get",
    "floats",
    "ints",
    "warping_from_config",
    "shape_from_config",
]

# The recognized keys, as listed above and in the README key table.
KEYS = (
    "shape", "r", "rho", "t0", "amplitude", "eps", "wave", "perturbation",
    "warping", "warping_poly", "warping_interval", "resolutions", "resolution",
    "rs", "amplitudes", "count", "seed",
)


def _pair(text: str, where: str) -> tuple[str, str]:
    """Split one `key=value` entry; `where` names it in error messages."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    key, _, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if not key or not value:
        raise ConfigError(f"{where}: empty key or value in {text!r}")
    if key not in KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}; recognized keys: {', '.join(KEYS)}")
    return key, value


class Config(dict):
    """Merged configuration, key -> value text.

    It remembers which keys came from command-line overrides and which
    keys were looked up, so a command can refuse an override it never
    reads.
    """

    def __init__(self, entries=()):
        super().__init__(entries)
        self.overrides: set[str] = set()
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def parse_kv_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _pair(line, f"line {lineno}")
            out[key] = value
    return out


def load_config_file(path) -> dict[str, str]:
    with open(path) as fh:
        return parse_kv_text(fh.read())


def merge_overrides(cfg: dict[str, str], pairs) -> Config:
    merged = Config(cfg)
    for token in pairs:
        key, value = _pair(token, "override")
        merged[key] = value
        merged.overrides.add(key)
    return merged


def _nonempty(values: list) -> list:
    if not values:
        raise ValueError("empty list")
    return values


def floats(text: str) -> list[float]:
    """A non-empty comma list of numbers."""
    return _nonempty([float(tok) for tok in text.split(",") if tok != ""])


def ints(text: str) -> list[int]:
    """A non-empty comma list of integers."""
    return _nonempty([int(tok) for tok in text.split(",") if tok != ""])


# What `get` says a value of each parse function must be.
_MUST_BE = {
    float: "a number, got {!r}",
    int: "an integer, got {!r}",
    floats: "a non-empty comma list of numbers",
    ints: "a non-empty comma list of integers",
}


def get(cfg, key: str, parse, default=None):
    """`parse(cfg[key])`, or `default` when the key is absent.

    A key with no default is required.  A value `parse` rejects raises
    ConfigError.
    """
    value = cfg.get(key)
    if value is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return parse(value)
    except ValueError as err:
        raise ConfigError(f"key {key!r} must be {_MUST_BE[parse].format(value)}") from err


def warping_from_config(cfg) -> wp.WarpingFunction:
    if "warping_poly" in cfg and "warping" in getattr(cfg, "overrides", ()):
        raise ConfigError("warping_poly overrides warping; give one of them")
    interval = None
    if "warping_poly" in cfg or "warping_interval" in cfg:
        interval = get(cfg, "warping_interval", floats)  # required with warping_poly
        if len(interval) != 2:
            raise ConfigError("warping_interval must be a comma pair, e.g. -1,1")
    try:  # `warping` stays unread when `warping_poly` overrides it
        if "warping_poly" in cfg:
            return wp.polynomial_warping(get(cfg, "warping_poly", floats), interval)
        return wp.builtin_warping(get(cfg, "warping", str, "product"), interval=interval)
    except DomainError as err:
        raise ConfigError(f"bad warping: {err}") from err


def _read(key: str, parse=float, default=None):
    """Reader of one key: cfg -> get(cfg, key, parse, default)."""
    return lambda cfg: get(cfg, key, parse, default)


# shape= value -> (catalog constructor, readers of its arguments, in order);
# the constructor's default resolution stands, since each rung sets its own.
SHAPES = {
    "clifford-torus": (catalog.clifford_torus, ()),
    "flat-torus": (catalog.flat_torus, (_read("r"),)),
    "geodesic-sphere": (catalog.geodesic_sphere, (_read("rho"),)),
    "slice": (catalog.slice_shape, (warping_from_config, _read("t0", float, 0.0))),
    "graph-over-slice": (catalog.graph_over_slice, (
        warping_from_config, _read("t0", float, 0.0), _read("perturbation", str, "Y2,0"),
        _read("amplitude"))),
    "perturbed-torus": (catalog.perturbed_torus, (
        _read("r"), _read("eps"), _read("wave", int, 3))),
}


def shape_from_config(cfg) -> catalog.ShapeSpec:
    kind = get(cfg, "shape", str)
    if kind not in SHAPES:
        raise ConfigError(f"unknown shape {kind!r}; expected one of {', '.join(SHAPES)}")
    make, readers = SHAPES[kind]
    args = [read(cfg) for read in readers]
    try:
        return make(*args)
    except DomainError as err:
        raise ConfigError(f"cannot build shape {kind!r}: {err}") from err

