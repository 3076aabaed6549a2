"""Sequence file ingestion.

Files are UTF-8 token streams: tokens separated by whitespace (or one per
line), with ``#``-prefixed comment lines ignored.  Consecutive repeats of the
same symbol can be collapsed to a single occurrence so that the chain models
transitions between distinct actions only.  Multiple files are collapsed
individually and then concatenated; the transition across each file boundary
is included by default, with the boundary positions reported so callers can
exclude those transitions instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from pathlib import Path

import numpy as np

from .markov import Alphabet, Sequence

__all__ = [
    "SequenceFileError",
    "SequenceFile",
    "collapse_repeats",
    "tokens_from_text",
    "read_tokens",
    "ingest_many",
    "ingest_tokens",
]


class SequenceFileError(ValueError):
    """A sequence file is missing, empty, malformed, or off-alphabet."""


@dataclass(frozen=True)
class SequenceFile:
    """One input file plus its parsing options."""

    path: str
    format: str = "tokens"
    declared_alphabet: tuple[str, ...] | None = None
    collapse_repeats: bool = False

    def __post_init__(self) -> None:
        if self.format not in ("tokens", "lines"):
            raise SequenceFileError(f"unknown format {self.format!r}")


def collapse_repeats(tokens: list[str]) -> list[str]:
    """Merge runs of consecutive identical symbols into one occurrence."""
    return [tok for tok, _ in groupby(tokens)]


def tokens_from_text(text: str) -> list[str]:
    """Tokenize inline text: whitespace-separated, or per-character when the
    text is a single unbroken run (convenient for compact digit strings)."""
    parts = text.split()
    if len(parts) == 1 and len(parts[0]) > 1:
        return list(parts[0])
    return parts


def read_tokens(path: str, fmt: str = "tokens") -> list[str]:
    p = Path(path)
    try:
        raw = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise SequenceFileError(f"cannot read {path}: {exc}") from exc
    tokens: list[str] = []
    for line in raw.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if fmt == "lines":
            tokens.append(stripped)
        else:
            tokens.extend(stripped.split())
    if not tokens:
        raise SequenceFileError(f"empty file: {path}")
    return tokens


def ingest_many(files: list[SequenceFile]) -> tuple[Sequence, list[int]]:
    """Concatenate several files into one Sequence over a shared alphabet.

    Each file is collapsed individually (per its own flag) before
    concatenation, so a repeat spanning a boundary is preserved.  Returns the
    sequence plus the start index of each constituent file within it; callers
    that want to exclude cross-boundary transitions can split there.
    """
    if not files:
        raise SequenceFileError("no input files")
    declared = files[0].declared_alphabet
    if any(sf.declared_alphabet != declared for sf in files):
        raise SequenceFileError("all files must declare the same alphabet")
    return ingest_tokens(
        [(sf.path, read_tokens(sf.path, sf.format), sf.collapse_repeats) for sf in files],
        declared,
    )


def ingest_tokens(
    sources: list[tuple[str, list[str], bool]],
    declared_alphabet: tuple[str, ...] | None = None,
) -> tuple[Sequence, list[int]]:
    """``ingest_many`` for token lists already in memory, such as inline text.

    Each source is (label for error messages, tokens, collapse repeats).  The
    alphabet is the declared one when present (every token must belong to
    it), otherwise the sorted distinct tokens of all sources.
    """
    token_lists = []
    for label, tokens, collapse in sources:
        if not tokens:
            raise SequenceFileError(f"empty input: {label}")
        if declared_alphabet is not None:
            offenders = sorted(set(tokens) - set(declared_alphabet))
            if offenders:
                raise SequenceFileError(
                    f"{label}: tokens outside declared alphabet: {', '.join(offenders)}"
                )
        token_lists.append(collapse_repeats(tokens) if collapse else tokens)
    merged = list(chain.from_iterable(token_lists))
    if declared_alphabet is not None:
        alphabet = Alphabet(declared_alphabet)
    else:
        alphabet = Alphabet.from_tokens(merged)
    starts = list(np.cumsum([0] + [len(t) for t in token_lists[:-1]]).astype(int))
    if len(merged) < 2:
        raise SequenceFileError("fewer than 2 symbols in total")
    return Sequence.from_tokens(merged, alphabet), starts
