"""Exception hierarchy shared by all modules.

Everything derives from RankderivError so callers (in particular the CLI)
can distinguish library failures from genuine bugs.
"""


class RankderivError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(RankderivError, ValueError):
    """Mismatched fields/dimensions, malformed specs or input files."""


class DomainError(RankderivError, ValueError):
    """Math domain violations: division by zero, inverting zero, or
    evaluating a delta map outside its declared domain."""


class PreconditionError(RankderivError, ValueError):
    """An operation's documented precondition does not hold."""


class ExtractionError(RankderivError, ValueError):
    """A structural identity required of a genuine multiplicative
    derivation failed during extraction.

    The ``identity`` attribute names the violated identity.
    """

    def __init__(self, identity: str, message: str):
        super().__init__(f"{identity}: {message}")
        self.identity = identity


class ResourceLimitError(RankderivError, RuntimeError):
    """An exhaustive operation would exceed its size guard."""


def guard(total: int, limit: int, things: str, what: str, hint: str = ""):
    """Refuse an exhaustive operation whose predicted ``total`` exceeds
    ``limit``: "N <things> exceed the L <what> guard", then ``hint``."""
    if total > limit:
        raise ResourceLimitError(
            f"{total} {things} exceed the {limit} {what} guard{hint}")
