"""Exception types shared across the package."""


class SchemaError(ValueError):
    """An input file does not match the expected column schema."""


class DataError(ValueError):
    """A dataset is unusable for the requested operation (empty, too
    short, or has no rows satisfying the preconditions)."""
