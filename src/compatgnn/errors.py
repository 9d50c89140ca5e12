"""Exception taxonomy shared across the package.

Each class maps to a CLI exit code so failures stay diagnosable from
shell scripts: ConfigError -> 2, DataError -> 3, NumericalError -> 4.
cli.main exits with `exit_code` and prefixes the message with `label`.
"""


class ConfigError(ValueError):
    """Bad configuration: unknown names, out-of-domain values, malformed specs."""

    exit_code = 2
    label = "config error"


class DataError(ValueError):
    """Bad data: malformed files, shape mismatches, label range violations."""

    exit_code = 3
    label = "data error"


class NumericalError(ArithmeticError):
    """Numerical failure: NaN/Inf in a forward pass, divergence, bad gradients."""

    exit_code = 4
    label = "numerical failure"


class TrainingDiverged(NumericalError):
    """Training aborted on non-finite loss; carries the partial run log."""

    def __init__(self, message, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result
