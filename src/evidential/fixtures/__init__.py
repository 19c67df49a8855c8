"""Bundled example models."""

from __future__ import annotations

import os

from ..document import ModelDocument, load_document

__all__ = ["coinflip", "FIXTURE_NAMES"]

FIXTURE_NAMES = ("coinflip",)


def coinflip() -> ModelDocument:
    """The six-state coin report model: a fair coin, a friend of uncertain
    disposition, and the statement "Heads" under both its naive and its
    coherent reading, with two priors attached."""
    return load_document(os.path.join(os.path.dirname(__file__), "coinflip.json"))
