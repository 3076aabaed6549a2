import pytest

from entrate.ingest import (
    SequenceFile,
    SequenceFileError,
    collapse_repeats,
    ingest_many,
    ingest_tokens,
    tokens_from_text,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestReadAndCollapse:
    def test_whitespace_tokens_and_comments(self, tmp_path):
        path = write(tmp_path, "a.txt", "# header\nnurse nurse groom\n\nnurse\n")
        seq = ingest_many([SequenceFile(path)])[0]
        assert seq.tokens() == ["nurse", "nurse", "groom", "nurse"]
        assert seq.alphabet.symbols == ("groom", "nurse")

    def test_lines_format(self, tmp_path):
        path = write(tmp_path, "a.txt", "eat food\nsleep\neat food\n")
        seq = ingest_many([SequenceFile(path, format="lines")])[0]
        assert seq.tokens() == ["eat food", "sleep", "eat food"]

    def test_collapse_rule(self, tmp_path):
        path = write(tmp_path, "a.txt", "nurse nurse groom nurse\n")
        seq = ingest_many([SequenceFile(path, collapse_repeats=True)])[0]
        assert seq.tokens() == ["nurse", "groom", "nurse"]

    def test_without_collapse(self, tmp_path):
        path = write(tmp_path, "a.txt", "nurse nurse groom nurse\n")
        assert ingest_many([SequenceFile(path)])[0].length == 4

    def test_collapse_idempotent(self):
        tokens = ["a", "a", "b", "b", "b", "a", "c", "c"]
        once = collapse_repeats(tokens)
        assert collapse_repeats(once) == once

    def test_seven_actions_alphabet(self, tmp_path):
        import numpy as np

        actions = ["lick", "carry", "nurse", "build", "off", "eat", "groom"]
        rng = np.random.default_rng(1)
        tokens = " ".join(rng.choice(actions, 50))
        seq = ingest_many([SequenceFile(write(tmp_path, "b.txt", tokens))])[0]
        assert seq.alphabet.kappa == 7
        assert np.log2(seq.alphabet.kappa) == pytest.approx(2.807, abs=1e-3)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "# only a comment\n\n")
        with pytest.raises(SequenceFileError, match="empty"):
            ingest_many([SequenceFile(path)])

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SequenceFileError, match="cannot read"):
            ingest_many([SequenceFile(str(tmp_path / "nope.txt"))])

    def test_off_alphabet_tokens_listed(self, tmp_path):
        path = write(tmp_path, "a.txt", "a b z y a\n")
        with pytest.raises(SequenceFileError, match="y, z"):
            ingest_many([SequenceFile(path, declared_alphabet=("a", "b"))])

    def test_declared_alphabet_order_kept(self, tmp_path):
        path = write(tmp_path, "a.txt", "b a b\n")
        seq = ingest_many([SequenceFile(path, declared_alphabet=("b", "a"))])[0]
        assert seq.alphabet.symbols == ("b", "a")
        assert seq.states.tolist() == [0, 1, 0]

    def test_collapse_to_single_symbol_rejected(self, tmp_path):
        path = write(tmp_path, "a.txt", "a a a a\n")
        with pytest.raises(SequenceFileError, match="fewer than 2"):
            ingest_many([SequenceFile(path, collapse_repeats=True)])


class TestIngestMany:
    def test_concatenation_and_boundaries(self, tmp_path):
        p1 = write(tmp_path, "one.txt", "a a b\n")
        p2 = write(tmp_path, "two.txt", "b c\n")
        seq, starts = ingest_many(
            [SequenceFile(p1, collapse_repeats=True), SequenceFile(p2, collapse_repeats=True)]
        )
        # Collapsing is per file, so the boundary repeat b|b survives.
        assert seq.tokens() == ["a", "b", "b", "c"]
        assert starts == [0, 2]

    def test_shared_alphabet_union(self, tmp_path):
        p1 = write(tmp_path, "one.txt", "a b\n")
        p2 = write(tmp_path, "two.txt", "c\n")
        seq, _ = ingest_many([SequenceFile(p1), SequenceFile(p2)])
        assert seq.alphabet.symbols == ("a", "b", "c")

    def test_mismatched_declarations_rejected(self, tmp_path):
        p1 = write(tmp_path, "one.txt", "a\n")
        p2 = write(tmp_path, "two.txt", "b\n")
        with pytest.raises(SequenceFileError, match="same alphabet"):
            ingest_many(
                [
                    SequenceFile(p1, declared_alphabet=("a", "b")),
                    SequenceFile(p2, declared_alphabet=("a",)),
                ]
            )


class TestIngestTokens:
    def test_same_checks_as_files(self):
        with pytest.raises(SequenceFileError, match="--text: .*y, z"):
            ingest_tokens([("--text", ["a", "z", "y"], False)], ("a", "b"))
        with pytest.raises(SequenceFileError, match="fewer than 2"):
            ingest_tokens([("--text", ["a", "a"], True)])
        seq, starts = ingest_tokens([("--text", ["b", "b", "a"], True)], ("b", "a"))
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
