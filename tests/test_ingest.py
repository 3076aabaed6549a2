import os

import pytest
from conftest import assert_refused

from entrate.ingest import (
    InputError,
    check_writable,
    collapse_repeats,
    ingest_many,
    read_tokens,
    tokens_from_text,
    write_text,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def ingest_files(paths, fmt="tokens", declared_alphabet=None, collapse=False):
    """``ingest_many`` over files, read as the CLI reads them."""
    sources = [(p, read_tokens(p, fmt)) for p in paths]
    return ingest_many(sources, declared_alphabet, collapse)


class TestReadAndCollapse:
    def test_whitespace_tokens_and_comments(self, tmp_path):
        path = write(tmp_path, "a.txt", "# header\nnurse nurse groom\n\nnurse\n")
        seq = ingest_files([path])[0]
        assert seq.tokens() == ["nurse", "nurse", "groom", "nurse"]
        assert seq.alphabet.symbols == ("groom", "nurse")

    def test_lines_format(self, tmp_path):
        path = write(tmp_path, "a.txt", "eat food\nsleep\neat food\n")
        seq = ingest_files([path], fmt="lines")[0]
        assert seq.tokens() == ["eat food", "sleep", "eat food"]

    def test_collapse_rule(self, tmp_path):
        path = write(tmp_path, "a.txt", "nurse nurse groom nurse\n")
        seq = ingest_files([path], collapse=True)[0]
        assert seq.tokens() == ["nurse", "groom", "nurse"]

    def test_without_collapse(self, tmp_path):
        path = write(tmp_path, "a.txt", "nurse nurse groom nurse\n")
        assert ingest_files([path])[0].length == 4

    def test_collapse_idempotent(self):
        tokens = ["a", "a", "b", "b", "b", "a", "c", "c"]
        once = collapse_repeats(tokens)
        assert collapse_repeats(once) == once

    def test_seven_actions_alphabet(self, tmp_path):
        import numpy as np

        actions = ["lick", "carry", "nurse", "build", "off", "eat", "groom"]
        rng = np.random.default_rng(1)
        tokens = " ".join(rng.choice(actions, 50))
        seq = ingest_files([write(tmp_path, "b.txt", tokens)])[0]
        assert seq.alphabet.kappa == 7
        assert np.log2(seq.alphabet.kappa) == pytest.approx(2.807, abs=1e-3)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "# only a comment\n\n")
        with pytest.raises(InputError, match="empty"):
            ingest_files([path])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            ingest_files([str(tmp_path / "nope.txt")])

    def test_unknown_format_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "a b\n")
        with pytest.raises(InputError, match="unknown format 'csv'"):
            read_tokens(path, "csv")

    def test_off_alphabet_tokens_listed(self, tmp_path):
        path = write(tmp_path, "a.txt", "a b z y a\n")
        with pytest.raises(InputError, match="y, z"):
            ingest_files([path], declared_alphabet=("a", "b"))

    def test_declared_alphabet_order_kept(self, tmp_path):
        path = write(tmp_path, "a.txt", "b a b\n")
        seq = ingest_files([path], declared_alphabet=("b", "a"))[0]
        assert seq.alphabet.symbols == ("b", "a")
        assert seq.states.tolist() == [0, 1, 0]

    def test_collapse_to_single_symbol_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "a a a a\n")
        with pytest.raises(InputError, match="fewer than 2"):
            ingest_files([path], collapse=True)


class TestIngestMany:
    def test_concatenation_and_boundaries(self, tmp_path):
        p1 = write(tmp_path, "one.txt", "a a b\n")
        p2 = write(tmp_path, "two.txt", "b c\n")
        seq, starts = ingest_files([p1, p2], collapse=True)
        # Collapsing is per file, so the boundary repeat b|b survives.
        assert seq.tokens() == ["a", "b", "b", "c"]
        assert starts == [0, 2]

    def test_shared_alphabet_union(self, tmp_path):
        p1 = write(tmp_path, "one.txt", "a b\n")
        p2 = write(tmp_path, "two.txt", "c\n")
        seq, _ = ingest_files([p1, p2])
        assert seq.alphabet.symbols == ("a", "b", "c")


class TestIngestTokens:
    def test_same_checks_as_files(self):
        with pytest.raises(InputError, match="--text: .*y, z"):
            ingest_many([("--text", ["a", "z", "y"])], ("a", "b"))
        with pytest.raises(InputError, match="fewer than 2"):
            ingest_many([("--text", ["a", "a"])], collapse=True)
        seq, starts = ingest_many([("--text", ["b", "b", "a"])], ("b", "a"), collapse=True)
        assert seq.tokens() == ["b", "a"]
        assert seq.alphabet.symbols == ("b", "a")
        assert starts == [0]

    @pytest.mark.parametrize(
        "sources, message",
        [
            ([], "no input sources"),
            ([("--text", ["a", "b"]), ("b.txt", [])], "empty input: b.txt"),
        ],
        ids=["no-sources", "empty-source"],
    )
    def test_missing_input_rejected(self, sources, message):
        assert_refused(lambda: ingest_many(sources), InputError, message)


class TestTokensFromText:
    def test_unbroken_run_splits_characters(self):
        assert tokens_from_text("1313") == ["1", "3", "1", "3"]

    def test_whitespace_separated(self):
        assert tokens_from_text("ab cd") == ["ab", "cd"]

    def test_single_character(self):
        assert tokens_from_text("a") == ["a"]


class TestCheckWritable:
    @pytest.mark.parametrize(
        "name",
        ["missing/r.json", "dir", "file.txt/r.json"],
        ids=["missing-dir", "is-dir", "file-as-dir"],
    )
    def test_refuses_with_write_texts_message(self, tmp_path, name):
        (tmp_path / "dir").mkdir()
        write(tmp_path, "file.txt", "kept\n")
        path = str(tmp_path / name)
        with pytest.raises(InputError) as refused:
            check_writable(None, path)
        with pytest.raises(InputError) as failed:
            write_text(path, "x")
        assert str(refused.value) == str(failed.value)
        assert str(refused.value).startswith(f"cannot write {path}: ")

    def test_writable_paths_left_as_they_are(self, tmp_path):
        old = write(tmp_path, "old.txt", "kept\n")
        check_writable(old, None, str(tmp_path / "new.txt"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
        assert (tmp_path / "old.txt").read_text(encoding="utf-8") == "kept\n"

    def test_refuses_an_input_or_a_second_output(self, tmp_path):
        seq = write(tmp_path, "s.txt", "kept\n")
        respelt = str(tmp_path / "." / "s.txt")
        with pytest.raises(InputError) as as_input:
            check_writable(None, respelt, inputs=[None, seq])
        assert str(as_input.value) == f"cannot write {respelt}: it is the input {seq}"
        out = str(tmp_path / "r.out")
        with pytest.raises(InputError) as twice:
            check_writable(out, out)
        assert str(twice.value) == f"cannot write {out}: it is named for two outputs"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.txt"]

    def test_refuses_a_directory_it_may_not_write_in(self, tmp_path, monkeypatch):
        # Root writes through any mode bits, so chmod cannot stand in for
        # os.access refusing the directory.
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        path = str(tmp_path / "r.json")
        assert_refused(
            lambda: check_writable(None, path),
            InputError,
            f"cannot write {path}: [Errno 13] Permission denied: '{path}'",
        )
        assert list(tmp_path.iterdir()) == []
