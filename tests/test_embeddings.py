import functools
import hashlib
import inspect
import json
import logging
import math
import operator
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eastgen
from eastgen import cli, embeddings, k_nearest, load_embeddings
from eastgen.embeddings import (
    CACHE_FORMAT, CACHE_KEEP, MIN_NORM, STALE_WRITE_S, EmbeddingTable, cache_dir,
    k_nearest_block, load_cached,
)
from eastgen.errors import EmbeddingFormatError, OutOfVocabularyError

from conftest import cache_entries
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

    def test_a_table_built_by_hand_takes_its_zero_row_count_sixth(self):
        t = load_embeddings("a 3 4\n")
        table = EmbeddingTable(t.dimension, t.tokens, t.index, t.unit, t.norms, 5)
        assert (table.skipped_zero_rows, table.zero_rows) == (5, [])

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

    def test_min_norm_is_the_root_of_the_smallest_normal(self):
        assert MIN_NORM == float(np.sqrt(np.finfo(np.float64).tiny))

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

    def test_peak_memory_of_a_cache_miss_and_hit_is_about_the_matrix(self, tmp_path):
        values = np.random.default_rng(5).integers(100_000, 1_000_000, size=(4000, 300))
        path = tmp_path / "table.txt"
        with open(path, "w", encoding="utf-8") as sink:
            for i, row in enumerate(values.tolist()):
                sink.write(f"w{i} " + " ".join(map(str, row)) + "\n")
        for outcome in ("miss", "hit"):
            tracemalloc.start()
            try:
                table = load_cached(str(path), _parse)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(cache_entries()) == 1, outcome
            # writing the entry copies no array; reading it copies none either
            assert peak < 1.5 * table.unit.nbytes, outcome
            del table


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return load_embeddings(handle)


def _outcome_of(table):
    return table.tokens, table.unit.tobytes(), table.norms.tobytes(), table.skipped_zero_rows


def _no_parse(path):
    raise AssertionError(f"{path} was parsed, not read from the cache")


# two zero rows (warned about), a duplicate and an empty token
_CACHED_TEXT = "a 3 4\nz 0 0\nb 0 -2\na 9 9\n\ny 0.0 -0\n 1 1\nc 1e-3 2\n"


def _truncated(entry):
    data = (entry / "unit.npy").read_bytes()
    (entry / "unit.npy").write_bytes(data[: len(data) - 8])


def _foreign_array(entry):  # an object array, which only unpickling could read
    np.save(entry / "unit.npy", np.array([{"a": 1}], dtype=object), allow_pickle=True)


def _foreign_meta(entry):
    (entry / "meta.json").write_text("[1, 2]")


def _wrong_digest(entry):
    meta = json.loads((entry / "meta.json").read_text())
    meta["sha256"] = "0" * 64
    (entry / "meta.json").write_text(json.dumps(meta))


def _short_norms(entry):
    np.save(entry / "norms.npy", np.ones(1))


class TestCache:
    """load_cached: a hit gives exactly what the parse gave, and anything
    doubtful is a miss."""

    def _load(self, path, caplog, parse=_parse):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="eastgen.embeddings"):
            table = load_cached(str(path), parse)
        warnings = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        return _outcome_of(table), warnings

    def test_a_hit_equals_the_miss(self, tmp_path, caplog):
        path = tmp_path / "t.txt"
        path.write_text(_CACHED_TEXT, encoding="utf-8")
        miss = self._load(path, caplog)
        assert len(cache_entries()) == 1
        hit = self._load(path, caplog, parse=_no_parse)
        assert hit == miss == self._load(path, caplog)  # the last one also hits
        assert miss[0][3] == 2 and miss[0][0] == ["a", "b", "", "c"]
        assert [m for _, _, m in miss[1]] == [
            "skipping zero vector for token 'z' (line 2)",
            "skipping zero vector for token 'y' (line 6)",
        ]

    def test_a_file_rewritten_in_place_is_a_miss(self, tmp_path, caplog):
        path = tmp_path / "t.txt"
        path.write_text("a 1 2\nb 3 4\n", encoding="utf-8")
        self._load(path, caplog)
        with open(path, "r+", encoding="utf-8") as handle:  # same size, same inode
            handle.write("a 1 2\nb 3 5\n")
        assert self._load(path, caplog) == (_outcome("a 1 2\nb 3 5\n"), [])
        assert len(cache_entries()) == 2

    def test_a_file_that_changes_during_the_parse_is_not_cached(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a 1 2\n", encoding="utf-8")

        def parse_then_append(p):
            table = _parse(p)
            with open(p, "a", encoding="utf-8") as handle:
                handle.write("b 3 4\n")
            return table

        assert load_cached(str(path), parse_then_append).tokens == ["a"]
        assert cache_entries() == []

    @pytest.mark.parametrize(
        "damage", [_truncated, _foreign_array, _foreign_meta, _wrong_digest, _short_norms]
    )
    def test_a_damaged_entry_is_a_miss_and_is_rewritten(self, tmp_path, caplog, damage):
        path = tmp_path / "t.txt"
        path.write_text(_CACHED_TEXT, encoding="utf-8")
        miss = self._load(path, caplog)
        [name] = cache_entries()
        damage(cache_dir() / name)
        parsed = []
        assert self._load(path, caplog, parse=lambda p: parsed.append(p) or _parse(p)) == miss
        assert parsed == [str(path)]
        assert cache_entries() == [name]
        assert self._load(path, caplog, parse=_no_parse) == miss

    def test_a_failed_parse_is_not_cached(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a 1 0\nb x 0\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(EmbeddingFormatError) as err:
                load_cached(str(path), _parse)
            assert err.value.line == 2
        assert cache_entries() == []

    def test_eviction_keeps_the_most_recently_used(self, tmp_path, caplog):
        assert CACHE_KEEP == 3
        paths = []
        for i in range(5):
            paths.append(tmp_path / f"t{i}.txt")
            paths[-1].write_text(f"a 1 {i + 1}\n", encoding="utf-8")
        names = []
        past = time.time() - 1000  # file times are coarse: give each load its own
        for i, path in enumerate(paths[:4]):
            self._load(path, caplog)
            [name] = set(cache_entries()) - set(names)
            names.append(name)
            os.utime(cache_dir() / name, (past + i, past + i))
        assert cache_entries() == sorted(names[1:4])  # the fourth evicted the first
        self._load(paths[1], caplog, parse=_no_parse)  # a hit makes it the newest
        self._load(paths[4], caplog)
        [newest] = set(cache_entries()) - set(names)
        assert cache_entries() == sorted([names[1], names[3], newest])

    def test_a_write_removes_only_stale_unfinished_writes(self, tmp_path):
        stale, running = cache_dir() / ".tmp-killed", cache_dir() / ".tmp-running"
        for unfinished in (stale, running):
            unfinished.mkdir(parents=True)
            (unfinished / "unit.npy").write_bytes(b"partial")
        old = time.time() - STALE_WRITE_S - 60
        os.utime(stale, (old, old))
        path = tmp_path / "t.txt"
        path.write_text("a 1 2\n", encoding="utf-8")
        load_cached(str(path), _parse)
        assert not stale.exists() and running.exists()
        assert len(cache_entries()) == 2  # the new entry and the running write

    @pytest.mark.parametrize("package", [eastgen, np], ids=["eastgen", "numpy"])
    def test_an_entry_of_another_release_is_not_read(self, tmp_path, caplog, monkeypatch,
                                                     package):
        path = tmp_path / "t.txt"
        path.write_text(_CACHED_TEXT, encoding="utf-8")
        miss = self._load(path, caplog)
        monkeypatch.setattr(package, "__version__", "0.0.0")
        parsed = []
        assert self._load(path, caplog, parse=lambda p: parsed.append(p) or _parse(p)) == miss
        assert parsed == [str(path)]
        assert len(cache_entries()) == 2

    def test_the_cache_format_changes_with_the_code_it_caches(self):
        """A hit skips the parse, so an entry must not outlive a change to what
        the parse accepts or gives, or to how an entry is written and read."""
        code = (cli._open_text, cli._parse_embeddings, embeddings.iter_lines,
                load_embeddings, EmbeddingTable, embeddings._entry_name,
                embeddings._read_entry, embeddings._write_entry)
        source = "".join(map(inspect.getsource, code)) + repr(
            (MIN_NORM, embeddings.NORM_BLOCK_ROWS))
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
        assert (CACHE_FORMAT, digest) == (1, "a2458f54e5d9cea2"), (
            "code that cached tables depend on changed: if what load_embeddings "
            "accepts or returns, or the entry format, changed, bump CACHE_FORMAT; "
            "then pin the new digest beside it")


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
        result = k_nearest(table, "q", 2, among=["a", "c", "q", "unknown"])
        assert [t for t, _ in result] == ["a", "c"]


def _exact_knn(table, query, k, among=None):
    """Brute force: every candidate row scored with fsum, then (-sim, token)."""
    q = table.unit[table.index[query]]
    names = table.tokens if among is None else [t for t in dict.fromkeys(among) if t in table]
    scored = [
        (t, math.fsum((table.unit[table.index[t]] * q).tolist()))
        for t in names if t != query
    ]
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    return scored[:k]


def _left_to_right_dot(a, b):
    """A float dot product summed in one fixed order, as a naive kernel would."""
    return functools.reduce(operator.add, (a * b).tolist())


@pytest.fixture(scope="module")
def tie_table():
    """300 seeded rows of 12 components; 100 of them copy another row under
    another token, half of those scaled by a power of two, which normalises
    to the same unit row, so exact ties abound."""
    rng = np.random.default_rng(41)
    base = np.round(rng.normal(size=(200, 12)), 2)
    rows = [(f"w{i:03d}", row) for i, row in enumerate(base)]
    for j, i in enumerate(rng.choice(200, size=100)):
        scale = 1.0 if j % 2 else 2.0 ** int(rng.integers(-3, 4))
        rows.append((f"v{j:03d}", base[i] * scale))
    order = rng.permutation(len(rows))
    text = "".join(
        rows[i][0] + " " + " ".join(map(repr, rows[i][1].tolist())) + "\n" for i in order
    )
    return load_embeddings(text)


@pytest.fixture(scope="module")
def near_tie_table():
    """Rows that differ from one another by a few units in the last place, so
    many similarities to any query lie within a few ulps of one another."""
    rng = np.random.default_rng(43)
    base = rng.normal(size=24)
    noise = rng.integers(-4, 5, size=(400, 24)) * np.spacing(np.abs(base))
    text = "".join(
        f"n{i:03d} " + " ".join(map(repr, (base + row).tolist())) + "\n"
        for i, row in enumerate(noise)
    )
    return load_embeddings(text)


class TestExactScorer:
    @pytest.mark.parametrize("k", [1, 3, 10, 299, 400])
    def test_equals_a_brute_force_fsum_scan(self, tie_table, k):
        for query in tie_table.tokens[::7]:
            assert k_nearest(tie_table, query, k) == _exact_knn(tie_table, query, k)

    def test_fixture_has_exact_ties_inside_the_top_k(self, tie_table):
        sims = [sim for query in tie_table.tokens[::7]
                for _, sim in _exact_knn(tie_table, query, 10)]
        assert len(sims) - len(set(sims)) > 20

    def test_order_is_exact_where_a_float_dot_ties(self):
        # b's products with q are 0.5, 2^-54, 2^-54 and 0: summed left to right
        # they round to 0.5, a's exact score, but their exact sum is 0.5 + 2^-53
        h, c = 2.0 ** -27, 0.8660254037844387  # c makes both norms exactly 1
        table = load_embeddings(
            f"q 1 {h!r} {h!r} 0\na 0.5 0 0 {c!r}\nb 0.5 {h!r} {h!r} {c!r}\n"
        )
        q, a, b = table.unit
        assert _left_to_right_dot(a, q) == _left_to_right_dot(b, q) == 0.5
        expected = [("b", 0.5 + 2.0 ** -53), ("a", 0.5)]
        assert k_nearest(table, "q", 2) == expected
        assert k_nearest(table, "q", 2, among=["a", "b"]) == expected
        assert k_nearest(table, "q", 1) == expected[:1]

    def test_near_ties_follow_the_exact_order(self, near_tie_table):
        table = near_tie_table
        queries = table.tokens[:40]
        disagreements = 0
        for query in queries:
            expected = _exact_knn(table, query, 8)
            assert k_nearest(table, query, 8) == expected
            q = table.unit[table.index[query]]
            naive = sorted(
                ((t, _left_to_right_dot(table.unit[table.index[t]], q))
                 for t in table.tokens if t != query),
                key=lambda ts: (-ts[1], ts[0]),
            )[:8]
            disagreements += [t for t, _ in naive] != [t for t, _ in expected]
        assert disagreements > 0  # the fixture does separate the two orders

    def test_block_size_changes_nothing(self, near_tie_table, tie_table):
        for table in (near_tie_table, tie_table):
            queries = table.tokens[:48]
            whole = k_nearest_block(table, queries, 6)
            for size in (1, 16):
                blocks = [k_nearest_block(table, queries[i:i + size], 6)
                          for i in range(0, len(queries), size)]
                assert [r for block in blocks for r in block] == whole
            assert whole == [_exact_knn(table, q, 6) for q in queries]

    def test_among(self, tie_table):
        pool = tie_table.tokens[::3] + ["unknown", tie_table.tokens[3]]
        queries = tie_table.tokens[:20]
        got = k_nearest_block(tie_table, queries, 5, among=pool)
        assert got == [_exact_knn(tie_table, q, 5, among=pool) for q in queries]
        assert all(t in pool and t != q for q, result in zip(queries, got) for t, _ in result)

    def test_among_with_no_candidates(self, tie_table):
        query = tie_table.tokens[0]
        assert k_nearest(tie_table, query, 3, among=[query, "unknown"]) == []

    def test_oov_query_in_a_block(self, tie_table):
        with pytest.raises(OutOfVocabularyError) as err:
            k_nearest_block(tie_table, [tie_table.tokens[0], "unknown", "missing"], 3)
        assert err.value.token == "unknown"

    def test_k_must_be_positive(self, tie_table):
        with pytest.raises(ValueError):
            k_nearest_block(tie_table, tie_table.tokens[:2], 0)


_KERNEL_CHILD = """
import hashlib
import numpy as np
from eastgen.embeddings import EmbeddingTable, k_nearest, k_nearest_block
matrix = np.random.default_rng(71).normal(size=(5000, 300))
norms = np.linalg.norm(matrix, axis=1)
tokens = [f"t{i}" for i in range(5000)]
table = EmbeddingTable(300, tokens, {t: i for i, t in enumerate(tokens)},
                       matrix / norms[:, None], norms)
result = [k_nearest(table, t, 10) for t in tokens[::50]]
result += k_nearest_block(table, tokens[::125], 10)  # a GEMM with 40 rows
print(hashlib.sha256(repr(result).encode()).hexdigest())
"""


def test_results_do_not_depend_on_the_blas_kernel():
    """Children forced onto OpenBLAS's SSE3 and AVX2 kernels give the same bits
    (another BLAS ignores the variable, and the two children agree anyway).
    A gemv or GEMM score alone differs between the two."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for coretype in ("Prescott", "Haswell"):
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _KERNEL_CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]
