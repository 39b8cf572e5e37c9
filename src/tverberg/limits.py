"""Work budgets for the enumeration-based oracles."""

from __future__ import annotations

DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive oracle would overrun its LP-call budget.

    ``required`` is a lower bound on the number of LP calls the refused
    computation would need.
    """

    def __init__(self, required: int, budget: int, context: str) -> None:
        super().__init__(
            f"{context}: needs at least {required} LP calls, budget is {budget}"
        )
        self.required = required
        self.budget = budget
