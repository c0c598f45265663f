import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eastgen import cosine_similarity, k_nearest, load_embeddings
from eastgen.embeddings import k_nearest_among
from eastgen.errors import EmbeddingFormatError, OutOfVocabularyError

from helpers import brute_force_knn


class TestLoad:
    def test_minimal(self):
        table = load_embeddings("a 1 0 0\nb 0 1 0\n")
        assert len(table) == 2
        assert table.dimension == 3
        assert list(table.vector("a")) == [1.0, 0.0, 0.0]

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings("a 1 0 0\nb 0 1\n")
        assert err.value.line == 2

    def test_zero_vector_rejected_with_count(self):
        table = load_embeddings("a 1 0\nz 0 0\nb 0 1\n")
        assert "z" not in table
        assert table.skipped_zero_rows == 1

    def test_duplicate_keeps_first(self):
        table = load_embeddings("a 1 0\na 0 1\n")
        assert list(table.vector("a")) == [1.0, 0.0]

    def test_empty_file(self):
        with pytest.raises(EmbeddingFormatError):
            load_embeddings("")

    def test_non_numeric(self):
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings("a 1 x\n")
        assert err.value.line == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_component_names_line(self, value):
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings(f"a 1 0\nb 0 0\nb {value} 1\nc 0 1\n")
        assert err.value.line == 3

    def test_duplicate_rows_are_still_parsed(self):
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings("a 1 0\na x 0\n")
        assert err.value.line == 2
        table = load_embeddings("a 1 0\na nan 0\n")  # first occurrence wins
        assert list(table.vector("a")) == [1.0, 0.0]

    def test_non_finite_line_counts_skipped_lines(self):
        with pytest.raises(EmbeddingFormatError) as err:
            load_embeddings("a 1 0\n\nz 0 0\na 2 2\nb 1 inf\nc 1 1\n")
        assert err.value.line == 5
        assert "'b'" in str(err.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("a 3e-320\nb 1\n", 1),  # the norm underflows to 0: an inf unit row
            ("a 1 0\nb 1e200 1e200\n", 2),  # the norm overflows: an all-zero unit row
            ("a 1 0\nb 1e-160 0\n", 2),  # a subnormal sum of squares: a row longer than 1
        ],
    )
    def test_norm_out_of_range_names_line(self, text, line):
        with pytest.raises(EmbeddingFormatError, match="squared norm") as err:
            load_embeddings(text)
        assert err.value.line == line

    def test_tiny_components_beside_a_normal_one_load(self):
        table = load_embeddings("a 1e-160 1\nb 1e150 1e150\n")
        assert table.unit.tolist() == [[1e-160, 1.0], [0.5 ** 0.5, 0.5 ** 0.5]]

    def test_unit_rows_and_norms(self):
        table = load_embeddings("a 3 4\nz 0 0\nb 0 -2\n")
        assert table.tokens == ["a", "b"]
        assert table.unit.tolist() == [[0.6, 0.8], [0.0, -1.0]]
        assert table.norms.tolist() == [5.0, 2.0]
        assert list(table.vector("b")) == [0.0, -2.0]

    def test_thousand_row_fixture(self, vector_fixture):
        text, vectors = vector_fixture
        table = load_embeddings(text)
        assert len(table) == 1000
        assert table.dimension == 16
        assert np.allclose(table.vector("tok0042"), vectors["tok0042"])


def _outcome(source):
    """What a load gives: the table's tokens and bits, or the error and its line."""
    try:
        table = load_embeddings(source)
    except EmbeddingFormatError as exc:
        return type(exc), exc.line, str(exc)
    return table.tokens, table.unit.tobytes(), table.norms.tobytes(), table.skipped_zero_rows


_cell = st.sampled_from([
    "1", "-2.5", "0", "0.0", "3e-320", "1e200", "nan", "inf", "x", "1_0", "",
    "1\x0c2", "0\x852", "2\u20281", "1\r0", "1\r\n0",
])
_row = st.builds(
    lambda token, cells: " ".join([token, *cells]),
    st.sampled_from(["a", "b", "c", "z", "  "]),
    st.lists(_cell, min_size=0, max_size=3),
)
_end = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\x0c", "\x85", "\u2028", " \n"])
_tables = st.lists(st.tuples(_row, _end), max_size=8).map(
    lambda rows: "".join(row + end for row, end in rows)
)


class TestStreamedLoad:
    """An open file loads exactly as its whole text does."""

    @settings(max_examples=200, deadline=None)
    @given(text=_tables)
    def test_file_and_text_agree(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "differential.txt"
        path.write_text(text, encoding="utf-8", newline="")  # the bytes, untranslated
        with open(path, encoding="utf-8") as handle:
            assert _outcome(handle) == _outcome(text)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2029"])
    def test_every_line_boundary_counts(self, tmp_path, end):
        path = tmp_path / "t.txt"
        path.write_text(f"a 1 0{end}{end}b 0 1{end}c 1{end}", encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as handle, pytest.raises(EmbeddingFormatError) as err:
            load_embeddings(handle)
        assert err.value.line == 4

    def test_pipe_is_read_whole(self):
        read_end, write_end = os.pipe()
        with open(write_end, "w", encoding="utf-8") as sink:
            sink.write("a 3 4\nb 0 -2\n")
        with open(read_end, encoding="utf-8") as handle:
            assert not handle.seekable()
            table = load_embeddings(handle)
        assert table.unit.tolist() == [[0.6, 0.8], [0.0, -1.0]]

    def test_peak_memory_is_about_the_matrix(self, tmp_path):
        # 7 bytes a component, so the text is about as large as the matrix
        values = np.random.default_rng(5).integers(100_000, 1_000_000, size=(4000, 300))
        path = tmp_path / "table.txt"
        with open(path, "w", encoding="utf-8") as sink:
            for i, row in enumerate(values.tolist()):
                sink.write(f"w{i} " + " ".join(map(str, row)) + "\n")
        tracemalloc.start()
        try:
            with open(path, encoding="utf-8") as handle:
                table = load_embeddings(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.unit.shape == (4000, 300)
        # the whole text, its line list or a full-matrix norm temporary
        # would each add about one more matrix
        assert peak < 1.5 * table.unit.nbytes


class TestCosine:
    def test_identical_direction(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_forty_five_degrees(self):
        # 1/sqrt(2), worked by hand
        assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(
            0.70710678, abs=1e-8
        )

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity([0, 0], [1, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1], [1, 0])


# components bounded away from zero so squared norms cannot underflow
_component = st.one_of(
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=-100, max_value=-0.01),
    st.just(0.0),
)
finite_vectors = st.lists(_component, min_size=3, max_size=3).filter(any)


@given(finite_vectors, finite_vectors)
def test_cosine_symmetry(a, b):
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-9)


@given(finite_vectors, st.floats(min_value=0.1, max_value=50))
def test_cosine_scale_invariance(a, scale):
    scaled = [x * scale for x in a]
    assert cosine_similarity(a, scaled) == pytest.approx(1.0, abs=1e-9)
    assert cosine_similarity(scaled, a) == pytest.approx(1.0, abs=1e-9)


def test_self_similarity_for_loaded_vectors(vector_fixture):
    text, _ = vector_fixture
    table = load_embeddings(text)
    for token in table.tokens[:50]:
        v = table.vector(token)
        assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-9)


class TestKNearest:
    def test_fewer_candidates_than_k(self):
        table = load_embeddings("q 1 0\na 1 1\n")
        result = k_nearest(table, "q", 5)
        assert [t for t, _ in result] == ["a"]
        assert result[0][1] == pytest.approx(1 / math.sqrt(2))

    def test_query_absent(self):
        table = load_embeddings("a 1 0\n")
        with pytest.raises(OutOfVocabularyError):
            k_nearest(table, "missing", 3)

    def test_query_excluded_from_result(self, vector_fixture):
        text, _ = vector_fixture
        table = load_embeddings(text)
        assert all(t != "tok0000" for t, _ in k_nearest(table, "tok0000", 10))

    def test_ties_break_lexicographically(self):
        # b and c are identical vectors, equally similar to q
        table = load_embeddings("q 1 0\nc 1 1\nb 1 1\na 0 1\n")
        result = k_nearest(table, "q", 3)
        assert [t for t, _ in result] == ["b", "c", "a"]

    def test_matches_brute_force_on_fixture(self, vector_fixture):
        text, vectors = vector_fixture
        table = load_embeddings(text)
        rng = np.random.RandomState(7)
        queries = [f"tok{i:04d}" for i in rng.choice(1000, size=40, replace=False)]
        for query in queries:
            got = k_nearest(table, query, 5)
            expected = brute_force_knn(vectors, query, 5)
            assert [t for t, _ in got] == [t for t, _ in expected]
            for (_, s1), (_, s2) in zip(got, expected):
                assert s1 == pytest.approx(s2, abs=1e-9)

    def test_restricted_pool(self):
        table = load_embeddings("q 1 0\na 1 1\nb 1 0\nc 0 1\n")
        result = k_nearest_among(table, "q", 2, ["a", "c", "q", "unknown"])
        assert [t for t, _ in result] == ["a", "c"]
