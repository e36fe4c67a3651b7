"""Exception types shared across the package."""


class HowekitError(Exception):
    """Base class for errors raised by howekit."""


class LimitExceeded(HowekitError):
    """A size cap was hit: term_cap, vertex_cap or enum_cap, through
    limits.check, or the fixed rank cap of weyl.check_rank."""


class NotACharacter(HowekitError):
    """Polynomial fed to decompose() is not a nonnegative sum of irreducible
    characters (not Weyl invariant, or a negative multiplicity appeared)."""


class MalformedTableau(HowekitError):
    """Columns cannot be assembled into a tableau (heights not weakly
    decreasing).  Distinct from a False verdict of is_king_tableau."""
