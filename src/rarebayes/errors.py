"""Exception types shared across the package, and how their messages name a list."""


class RareBayesError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(RareBayesError):
    """Malformed schema file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DatasetError(RareBayesError):
    """Unreadable data source or header that does not cover the schema."""


class CardinalityError(RareBayesError):
    """A categorical alphabet grew past the configured cap."""


class TrainingError(RareBayesError):
    """Training preconditions violated (e.g. constant class column)."""


class ModelSizeError(RareBayesError):
    """Planned count tables would exceed the model cell budget."""


class EvidenceError(RareBayesError):
    """A case carries a symbol outside the model's alphabets."""


class SingularCovarianceError(RareBayesError):
    """Covariance matrix is singular and no ridge was requested."""


class EvaluationError(RareBayesError):
    """Evaluation inputs are unusable (e.g. no positives in the data)."""


class ConfigError(RareBayesError):
    """Invalid generator or command configuration."""


def few(items: list) -> str:
    """``repr(items)`` when it holds at most five items, else the first five
    and how many more there are, so an error names a bounded list."""
    if len(items) <= 5:
        return repr(items)
    return f"{repr(items[:5])[:-1]}, ... {len(items) - 5} more]"
