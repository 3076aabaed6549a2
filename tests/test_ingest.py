import pytest

from entrate.ingest import (
    InputError,
    collapse_repeats,
    ingest_many,
    read_tokens,
    tokens_from_text,
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


class TestTokensFromText:
    def test_unbroken_run_splits_characters(self):
        assert tokens_from_text("1313") == ["1", "3", "1", "3"]

    def test_whitespace_separated(self):
        assert tokens_from_text("ab cd") == ["ab", "cd"]

    def test_single_character(self):
        assert tokens_from_text("a") == ["a"]
