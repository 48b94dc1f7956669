"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: malformed input -> 1, domain or
precondition violations -> 2, internal invariant breaches and any
exception from outside this hierarchy -> 3.
"""

_SHOWN_CHARS = 80


def _shown(v, show=repr) -> str:
    """show(v), repr(v) by default, cut to _SHOWN_CHARS characters: a
    message names a value without echoing all of it.  A value with no text,
    an int past the int-to-str digit limit (ValueError), gets a placeholder."""
    try:
        text = show(v)
    except ValueError:
        return "<a value too long to show>"
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


class EllwallError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EllwallError):
    """Malformed input: unparsable rational, bad JSON shape, etc."""


class DimensionError(EllwallError):
    """Divisor coefficient vector does not match the lattice rank."""


class DomainError(EllwallError):
    """A documented precondition does not hold for the given values."""


class UnsupportedRankError(DomainError):
    """Operation is only defined for Picard rank 2 configurations."""


class EmptySectionError(DomainError):
    """The volume section is empty (alpha + m - e <= 0)."""


class NotInHeartError(DomainError):
    """Limit central charge exits the allowed closed upper half-plane."""


class NonGenericError(DomainError):
    """alpha + m - e hits the wall constant, the section may ride the wall."""


class InvariantError(EllwallError):
    """An internal consistency check failed; indicates a bug."""
