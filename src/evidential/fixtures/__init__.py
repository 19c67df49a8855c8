"""Bundled example models."""

from __future__ import annotations

from importlib import resources

from ..document import ModelDocument, load_document

__all__ = ["coinflip", "FIXTURE_NAMES"]

FIXTURE_NAMES = ("coinflip",)


def _load(name: str) -> ModelDocument:
    with resources.as_file(resources.files(__package__).joinpath(f"{name}.json")) as path:
        return load_document(path)


def coinflip() -> ModelDocument:
    """The six-state coin report model: a fair coin, a friend of uncertain
    disposition, and the statement "Heads" under both its naive and its
    coherent reading, with two priors attached."""
    return _load("coinflip")
