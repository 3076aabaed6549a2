"""Sequence ingestion: token files or inline text, one path for both.

A source is a label (a file path, or ``--text``) with its tokens.  Files are
UTF-8 token streams: tokens separated by whitespace (or one per line), with
``#``-prefixed comment lines ignored.  Inline text is split by
``tokens_from_text``.  Consecutive repeats of the same symbol can be collapsed
to a single occurrence so that the chain models transitions between distinct
actions only.  Several sources are collapsed individually and then
concatenated; the transition across each source boundary is included by
default, with the boundary positions reported so that each source can be
passed on as its own segment instead (``--exclude-boundaries``).

Every path a user names is read by ``read_text`` or written by ``write_text``;
``check_writable`` tells beforehand whether ``write_text`` could write one
without replacing an input.
"""

from __future__ import annotations

import errno
import os
from itertools import chain, groupby
from pathlib import Path
from typing import Iterable

import numpy as np

from .markov import Alphabet, Sequence

__all__ = [
    "InputError",
    "read_text",
    "write_text",
    "check_writable",
    "collapse_repeats",
    "tokens_from_text",
    "read_tokens",
    "ingest_many",
]


class InputError(ValueError):
    """Exit 1: an unreadable or unwritable path, a malformed file or plan, a misused flag."""


def read_text(path: str) -> str:
    """The text of the UTF-8 file at ``path``, a path the user named."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, a path the user named, line ends as given."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _file_id(path: str) -> tuple[int, int] | str:
    """The file at ``path`` by its device and inode, which every link to it
    shares; a path that names no file, by the path it resolves to."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def check_writable(*paths: str | None, inputs: Iterable[str | None] = ()) -> None:
    """Raise ``write_text``'s InputError now for the first of ``paths`` it
    could not write, creating no file; a None path is skipped.  An existing
    path must open for appending, which leaves it as it is; a new one needs
    an existing, writable directory.  A path that names the same file as one
    of ``inputs``, or as an earlier path, through a symbolic or hard link or
    not, is refused too: writing it would replace an input or the other
    report."""
    taken = {_file_id(p): f"it is the input {p}" for p in filter(None, inputs)}
    for path in filter(None, paths):
        key = _file_id(path)
        if key in taken:
            raise InputError(f"cannot write {path}: {taken[key]}")
        taken[key] = "it is named for two outputs"
        parent = Path(path).parent
        try:
            try:
                os.stat(path)  # a symbolic-link loop raises here, not at the write
            except FileNotFoundError:
                if not parent.is_dir():
                    raise
                if not os.access(parent, os.W_OK):
                    raise OSError(errno.EACCES, os.strerror(errno.EACCES), path)
            else:
                open(path, "a").close()
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc


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
    """The tokens of the file at ``path``, read by ``read_text``, skipping
    blank and ``#`` lines.

    ``fmt`` is ``"tokens"`` (whitespace-separated tokens) or ``"lines"`` (each
    stripped line is one token).  Raises ``InputError`` for an unknown format,
    an unreadable file, or a file with no tokens.
    """
    if fmt not in ("tokens", "lines"):
        raise InputError(f"unknown format {fmt!r}")
    tokens: list[str] = []
    for line in read_text(path).splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if fmt == "lines":
            tokens.append(stripped)
        else:
            tokens.extend(stripped.split())
    if not tokens:
        raise InputError(f"empty file: {path}")
    return tokens


def ingest_many(
    sources: list[tuple[str, list[str]]],
    declared_alphabet: tuple[str, ...] | None = None,
    collapse: bool = False,
) -> tuple[Sequence, list[int]]:
    """Concatenate token sources into one Sequence over a shared alphabet.

    Each source is (label for error messages, tokens): a file's tokens from
    ``read_tokens`` or inline text's from ``tokens_from_text``.  The alphabet
    is the declared one when present (every token must belong to it),
    otherwise the sorted distinct tokens of all sources.  With ``collapse``,
    each source is collapsed individually before concatenation, so a repeat
    spanning a boundary is preserved.  Returns the sequence plus the start
    index of each source within it: split there, the segments go to
    ``run_estimator`` and ``bootstrap_se``, which then neither count nor
    resample across a boundary.
    """
    if not sources:
        raise InputError("no input sources")
    token_lists = []
    for label, tokens in sources:
        if not tokens:
            raise InputError(f"empty input: {label}")
        if declared_alphabet is not None:
            offenders = sorted(set(tokens) - set(declared_alphabet))
            if offenders:
                raise InputError(
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
        raise InputError("fewer than 2 symbols in total")
    return Sequence.from_tokens(merged, alphabet), starts
