"""Exception types shared across the engine."""


class QuestError(Exception):
    """Base class for all engine errors."""


class SchemaError(QuestError):
    """Malformed schema manifest or graph expansion input."""


class IngestError(QuestError):
    """Bad input data; carries enough context to locate the offending unit."""

    def __init__(self, message, *, path=None, ordinal=None):
        if path is not None:
            message = f"{message} (at {path})"
        if ordinal is not None:
            message = f"{message} [input #{ordinal}]"
        super().__init__(message)
        self.path = path
        self.ordinal = ordinal


class StoreError(QuestError):
    """On-disk store is missing, corrupt, or inconsistent."""


class DeliveryError(QuestError):
    """Bitset shape or metadata mismatch during delivery."""


class QueryError(QuestError):
    """Query document cannot be resolved against the store."""


class PlanConstraintError(QuestError):
    """A wandering sequence violates the subtree re-entry constraint."""


class BudgetError(QuestError):
    """A query ran past the deadline it was given."""
