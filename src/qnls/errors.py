"""Error types shared across modules and mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (CLI exit code 4)."""


class BudgetError(RuntimeError):
    """An enumeration or size guard tripped (CLI exit code 3)."""


def check_positive(**values) -> None:
    """Raise ValueError naming the first of values not finite and positive."""
    for name, x in values.items():
        if not 0 < x < float("inf"):     # NaN fails too
            raise ValueError(f"{name} must be finite and positive")
