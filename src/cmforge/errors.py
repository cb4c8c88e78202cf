"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise the most
specific one that applies instead of bare ValueError/RuntimeError.
"""

from mpmath import mp


class CMForgeError(Exception):
    """Base class for everything raised on purpose by this package."""


class InvalidParameters(CMForgeError):
    """Inputs violate a documented precondition (bad discriminant, prime, order...)."""


class UnsupportedInvariant(InvalidParameters):
    """The requested class invariant is not defined for this discriminant."""


class PrecisionEscalation(CMForgeError):
    """Internal signal: a rounding step was ambiguous, retry with more precision.

    Escalation drivers catch this; it should never escape to callers.
    """


class PrecisionExhausted(CMForgeError):
    """Escalation hit the configured bit ceiling without converging."""


class InternalInvariantError(CMForgeError):
    """A provably-true invariant failed; indicates a bug, not bad input."""


def approx_str(x) -> str:
    """The real x to 5 significant digits, for a message.  x is rounded to
    53 bits first: mpmath's nstr scales by the exponent, so an mpf with a
    mantissa above about 14,300 bits and a size beyond 2^(+-3500) exceeds
    Python's limit on int-to-str conversion and raises ValueError."""
    with mp.workprec(53):
        return mp.nstr(mp.mpf(x), 5)
