"""The one exception type the library raises."""


class DomainError(ValueError):
    """An argument breaks an invariant of an operation's domain, named in the message."""
