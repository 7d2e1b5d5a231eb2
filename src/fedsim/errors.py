"""Exception taxonomy shared by every fedsim module.

Four failure families map onto the CLI's exit codes and manifest
statuses (one table, ``fedsim.cli._ENDINGS``): configuration or
input-file problems (exit 2, ``config_error``), outputs that cannot be
written (exit 2, ``io_error``), numeric blow-ups during a run (exit 3,
``numeric_abort``), and structural misuse of the API, which is always a
caller bug: a library caller gets it raised, and the CLI reports it, as
any exception outside these families, as a crash (exit 1, ``crashed``).
"""

from __future__ import annotations


class FedSimError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FedSimError):
    """API contract violation: mismatched dimensions, empty inputs,
    an operation applied to the wrong model kind, and similar."""


class NumericError(FedSimError):
    """A computation produced NaN/Inf or violated a numeric invariant.

    Carries enough context to pinpoint the failure inside a run; fields
    are None when the error occurs outside that scope.
    """

    def __init__(self, message: str, *, round: int | None = None,
                 client: int | None = None, step: int | None = None):
        parts = [message]
        if round is not None:
            parts.append(f"round={round}")
        if client is not None:
            parts.append(f"client={client}")
        if step is not None:
            parts.append(f"step={step}")
        super().__init__(" ".join(parts) if len(parts) == 1 else
                         f"{message} ({', '.join(parts[1:])})")
        self.base_message = message
        self.round = round
        self.client = client
        self.step = step


class ConfigError(FedSimError):
    """Bad config file, override, or input data file.

    ``line``/``column`` locate parse errors inside text files; ``path``
    names the offending file when known.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, column: int | None = None):
        loc = ""
        if path is not None:
            loc += f" [{path}"
            if line is not None:
                loc += f":{line}"
                if column is not None:
                    loc += f":{column}"
            loc += "]"
        super().__init__(message + loc)
        self.path = path
        self.line = line
        self.column = column


class OutputError(FedSimError):
    """An output file or directory could not be written; the message
    names its path."""
