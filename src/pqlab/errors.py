"""Shared exception types."""


class PqlabError(Exception):
    """Base class for all package errors."""


class ConfigError(PqlabError):
    """Invalid device or structure parameters."""


class AddressError(PqlabError):
    """Block address outside [0, 2^w)."""


class BlockSizeError(PqlabError):
    """Block payload does not hold exactly B words of w bits."""


class EmptyQueueError(PqlabError):
    """ExtractMin on an empty queue."""


class DuplicateKeyError(PqlabError):
    """Insert of a key that is currently live."""


class CapabilityError(PqlabError):
    """Workload requires an operation the queue does not support."""


class DivergenceError(PqlabError):
    """A queue answer disagreed with the oracle / recorded transcript."""


class WorkloadUnderflowError(PqlabError):
    """An extract-min leaf found fewer live keys than it takes.

    A materialized tree's root extract-min leaf takes all m*beta^h root-level
    insert keys, so a seed that also draws any one of them to delete fails.
    """


class EncodingError(PqlabError):
    """A key or priority does not fit the device word width."""


class StructureOverflowError(PqlabError):
    """A fixed disk arena overflowed; the structure was sized for fewer items."""
