"""Exception taxonomy. Everything raised on purpose derives from CtdrError:
ContractViolation, ConfigError, ParseError, CheckpointError (any malformed
checkpoint) and NonFiniteLossError (the CLI exits 3 on it, 2 on the rest).
"""

from contextlib import contextmanager


class CtdrError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(CtdrError, ValueError):
    """An argument broke a documented precondition (shape, range, emptiness)."""


class ConfigError(CtdrError, ValueError):
    """Bad experiment configuration: unknown key, unparsable value, invalid combination."""


class ParseError(CtdrError, ValueError):
    """Malformed data or config file. Message carries the file and 1-based line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


class CheckpointError(CtdrError, ValueError):
    """Malformed checkpoint file. Message carries the file and what is wrong."""


class NonFiniteLossError(CtdrError, RuntimeError):
    """Training produced NaN or inf. `term` names the offender, `what` the
    value: a loss, logits, or (term "adam") one tensor's second moment."""

    def __init__(self, term, value, epoch=None, step=None, what="loss"):
        self.term = term
        self.value = value
        self.epoch = epoch
        self.step = step
        self.what = what
        where = ""
        if epoch is not None:
            where = f" at epoch {epoch}" + (f" step {step}" if step is not None else "")
        super().__init__(f"non-finite {what} in term '{term}'{where}: {value!r}")


@contextmanager
def blame(term, epoch=None, step=None):
    """Re-raise a NonFiniteLossError from inside (overflowing logits, Adam
    state) as `term`'s, at this epoch and step."""
    try:
        yield
    except NonFiniteLossError as exc:
        raise NonFiniteLossError(term, exc.value, epoch, step, exc.what) from exc
