"""Exception types shared across the package."""


class SworlabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SworlabError):
    """Invalid parameters: bad sample scheme, zero trials, malformed config."""


class OracleScaleError(SworlabError):
    """An exact enumeration would exceed the allowed budget."""


class ContractError(SworlabError):
    """Incompatible objects were combined, e.g. a tail curve centered at the
    wrong expectation compared against a bound with a different convention."""


class BernsteinConditionError(SworlabError):
    """The variance-to-mean condition (E f^2 <= B E f) fails for the excess
    loss class, so no finite localization constant exists."""
