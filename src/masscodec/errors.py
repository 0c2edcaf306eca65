"""Exception types shared across the package, and the checked read of parsed JSON."""


class MasscodecError(Exception):
    """Base class for all package errors."""


class ConfigError(MasscodecError):
    """Malformed codebook/scheme configuration."""


class LengthMismatch(MasscodecError):
    """Strings pooled together must share a common length."""


class DuplicateString(MasscodecError):
    """Pools are built from pairwise distinct strings."""


class OddLength(MasscodecError):
    """Balanced-string predicates are defined for even lengths only."""


class DistanceTooSmall(ConfigError):
    """Parity-check matrix distance below what the multiplicity needs."""


class SearchSpaceTooLarge(MasscodecError):
    """An exhaustive search would exceed its configured budget."""


class NoSolution(MasscodecError):
    """No subset of the codebook matches the target sum."""


class AmbiguousSolution(MasscodecError):
    """More than one subset matches, listed in ``matches``: the book lacks the claimed property."""

    def __init__(self, message: str, matches: tuple = ()):
        super().__init__(message)
        self.matches = matches


class CountMismatch(MasscodecError):
    """A pool does not split into the expected per-length fragment counts."""


class NegativeIncrement(MasscodecError):
    """A reconstructed sum symbol fell outside {0, ..., hbar}; pool corrupt."""


class InconsistentPoolSize(MasscodecError):
    """Pool cardinality is not a multiple of 2N, or implies too many strings."""


class UnsupportedCodebook(MasscodecError):
    """Mixture decoding needs a parity-check-backed codebook."""


class PatternNotPresent(MasscodecError):
    """An erasure/substitution pattern names fragments the pool lacks."""


class NotMassReducing(MasscodecError):
    """A substitution must strictly lower the fragment weight."""


class Conflict(MasscodecError):
    """Two reconstructed sum strings disagree at a known position."""


class CapabilityTooSmall(ConfigError):
    """The supplied linear code cannot absorb the requested error budget."""


class TooManyErasures(MasscodecError):
    """More positions erased than the linear code can resolve."""


class DecodeFailure(MasscodecError):
    """Decoding produced no consistent codeword."""


_REQUIRED = object()


def json_field(obj, key: str, what: str, kind: type = object, default=_REQUIRED):
    """``obj[key]`` of parsed JSON, checked to be a ``kind``; ConfigError if not.

    The key may be missing only when a ``default`` is given, which is then
    returned; with a default of None a null reads as missing.  For
    ``kind=int`` true and false are refused, although Python counts them
    as ints, and a float with no fractional part is returned as an int:
    JSON has one number type, so 2.0 is 2.
    """
    if not isinstance(obj, dict) or (key not in obj and default is _REQUIRED):
        raise ConfigError(f"{what} needs a {key!r} entry")
    value = obj.get(key, default)
    if value is None and default is None:
        return None
    if kind is int and isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        article = "an" if kind is int else "a"
        raise ConfigError(f"{what} needs {article} {kind.__name__} {key!r}, got {value!r}")
    return value


def json_int(obj, key: str, what: str, default=_REQUIRED) -> int:
    """``json_field(..., int)`` that also reads integer text, as pool files always have."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(value, str) and value.strip().lstrip("+-").isdigit():
        return int(value)
    return json_field(obj, key, what, int, default)
