"""Exception types shared across the package."""


class NeroncalcError(Exception):
    """Base class for all errors raised by neroncalc."""


class MalformedFiber(NeroncalcError):
    """The combinatorial data cannot come from a normal crossings fiber."""


class ParseError(NeroncalcError):
    """Malformed curve or provider document."""


class BadFraction(NeroncalcError):
    """Invalid input to a continued fraction expansion."""


class BadLocalData(NeroncalcError):
    """Local multiplicities and degree violate a divisibility constraint."""


class PreconditionError(NeroncalcError):
    """A documented precondition of the operation is violated."""


class InternalError(NeroncalcError):
    """An internal consistency assertion failed; indicates a bug."""


class ProviderIncomplete(NeroncalcError):
    """Reduction data is missing for a required degree."""


class NonIntegralAssembly(NeroncalcError):
    """A series coefficient failed to land in the integral coefficient ring."""


class MissingField(NeroncalcError):
    """A conductor formula needs a field that was not supplied."""


class InconsistentData(NeroncalcError):
    """Supplied numerical data contradicts a derived relation."""


class NegativeConductor(NeroncalcError):
    """Inputs force a negative conductor, which is impossible."""


class BadFiltration(NeroncalcError):
    """Ramification filtration data violates monotonicity constraints."""


class NonReducible(NeroncalcError):
    """Numerator vanishing could not be cancelled against the denominator."""
