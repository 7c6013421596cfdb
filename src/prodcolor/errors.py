"""Shared exception types and the default size caps that raise CapExceeded."""

# the LP in fractional_chromatic
DEFAULT_MAX_LP_VERTICES = 30
# the materialized exponential graph K_c^G
DEFAULT_MAX_EXP_VERTICES = 200_000
DEFAULT_MAX_EXP_EDGES = 25_000_000


class CapExceeded(RuntimeError):
    """An operation would exceed a configured size cap.

    The message names the cap and the size that tripped it; nothing is
    silently truncated.
    """


class ParseError(ValueError):
    """Malformed input: graph or digraph text, reported with a line number,
    or a structured object, reported by the key or entry at fault
    (``line_no`` None).
    """

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no
