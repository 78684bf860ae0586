"""Pieces shared by the three workloads."""
from __future__ import annotations


class OracleMiss(Exception):
    """A task's output disagreed with its independent check."""


def check(condition: bool, message: str) -> None:
    """Raise OracleMiss with message unless condition holds."""
    if not condition:
        raise OracleMiss(message)
