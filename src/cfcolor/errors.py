"""Shared exception types."""


class InputFormatError(ValueError):
    """A file or argument does not conform to the expected format."""


class BudgetExceededError(RuntimeError):
    """A solver exhausted its explicit resource budget.

    Distinct from a "no" answer: the search was cut off, nothing is
    known about the instance.
    """

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class ResampleFailure(BudgetExceededError):
    """The resampling loop hit its round cap; retry with a fresh seed."""

    def __init__(self, rounds, worst_edge):
        super().__init__(
            f"no good coloring after {rounds} resampling rounds "
            f"(worst edge {worst_edge})"
        )
        self.rounds = rounds
        self.worst_edge = worst_edge


class PipelineError(RuntimeError):
    """The pipeline failed at a stage; its args are (stage, message), and
    it reads "[stage] message"."""

    def __init__(self, stage, message):
        super().__init__(stage, message)

    def __str__(self):
        stage, message = self.args
        return f"[{stage}] {message}"
