"""Counting operations, failures and failed correctness checks."""

from __future__ import annotations

from typing import Callable, List, Tuple, Type

MAX_REPORTED = 10


class Tally:
    """Runs one operation at a time and counts it.

    An operation fails when it raises one of ``errors`` (silt's numerical
    failures) or when its result does not pass its check.  Either way the
    run goes on.  Any other exception propagates: it is a defect of the
    benchmark or a broken API, not a numerical failure.
    """

    def __init__(self, errors: Tuple[Type[BaseException], ...]):
        self.errors = errors
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def run(self, label: str, call: Callable[[], object], check: Callable[[object], bool]):
        """Return the operation's result, or None when it raised."""
        self.attempted += 1
        try:
            value = call()
        except self.errors as exc:
            self._fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        if not check(value):
            self._fail(f"{label}: check failed on {value!r}")
        return value

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_REPORTED:
            self.failures.append(message)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)
