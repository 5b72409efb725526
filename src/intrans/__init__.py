"""Intransitive dice and close-election simulation toolkit."""

__version__ = "0.1.0"

from . import experiments  # noqa: F401  (registers the MC families)
