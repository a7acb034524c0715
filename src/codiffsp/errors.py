"""Structured errors with stable machine-readable codes.

Every failure that can cross the CLI boundary carries a short code so that
scripts can branch on it without parsing prose.
"""

from __future__ import annotations


class CodiffspError(Exception):
    """Base class for all library errors.

    Parameters
    ----------
    code : str
        Stable identifier, e.g. ``"PROB_SUM"``.
    message : str
        Human-readable one-liner.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(f"[{code}] {message}")


class ParseError(CodiffspError):
    def __init__(self, message: str):
        super().__init__("PARSE", message)


class ValidationError(CodiffspError):
    """Semantic problem-data error; ``code`` distinguishes the cause."""


class DimensionMismatch(CodiffspError):
    def __init__(self, message: str):
        super().__init__("DIM_MISMATCH", message)


class VertexCapExceeded(CodiffspError):
    def __init__(self, count: int, cap: int):
        super().__init__(
            "VERTEX_CAP",
            f"vertex set grew to {count} > cap {cap}; prune intermediate "
            f"expressions or simplify the model",
        )


class NotDC(CodiffspError):
    def __init__(self, message: str):
        super().__init__("NOT_DC", message)


class Unprojectable(CodiffspError):
    def __init__(self, message: str):
        super().__init__("UNPROJECTABLE", message)


class InfeasibleCandidate(CodiffspError):
    def __init__(self, message: str):
        super().__init__("INFEASIBLE_CANDIDATE", message)


class NonFinite(CodiffspError):
    def __init__(self, message: str):
        super().__init__("NONFINITE", message)
