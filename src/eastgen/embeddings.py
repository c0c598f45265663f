"""Word-vector table with exact cosine-similarity nearest-neighbor lookup.

The file format is the common text convention: one ``token v1 v2 ... vD``
row per line, space-separated, no header. Nearest-neighbor lookups are
exact, with no approximate indexing: one GEMM per block of queries
short-lists the rows near each query's k-th score, and only those are
re-scored with a correctly rounded sum (after Johnson et al., "Billion-scale
similarity search with GPUs", arXiv:1702.08734). Similarities and their
order therefore do not depend on the BLAS build or the block a query is in.

A table is its tokens, their row index, the unit-normalized rows and the
all-zero rows the parse skipped; the norms are taken only to check and
normalize the rows. A parsed table can be cached on disk (``load_cached``):
one file per file content and release, holding the unit rows as ``.npy``
followed by the tokens and zero rows as JSON, under
``$XDG_CACHE_HOME/eastgen/embeddings/`` (or ``~/.cache/eastgen/embeddings/``),
so a later load of the same bytes skips the text parse.

numpy is imported by the functions that use it, not by this module, so a
program that loads no embeddings never loads numpy or its BLAS.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import shutil
import stat
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TextIO

from .errors import EmbeddingFormatError, OutOfVocabularyError

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

# below this norm the row's sum of squares is subnormal or 0, so the norm is
# imprecise or 0; above about 1.3e154 the sum of squares overflows to inf.
# It is sqrt of float64's smallest normal, 2 ** -1022, and exact.
MIN_NORM = 2.0 ** -511  # about 1.5e-154
NORM_BLOCK_ROWS = 1024
ZERO_ROW_WARNING = "skipping zero vector for token %r (line %d)"

# Part of every cache entry's name: bump it whenever load_embeddings' accepted
# input or its output changes, or the entry format does, so no entry written
# before is read again. tests/test_embeddings.py pins it with a digest of the
# source of the parse and of the entry code, and fails until it is bumped.
CACHE_FORMAT = 2
CACHE_KEEP = 3  # entries kept, the most recently used
STALE_WRITE_S = 3600  # an unfinished entry this old was left by a killed process


@dataclass
class EmbeddingTable:
    """Immutable token -> row mapping held as a unit-normalized matrix for KNN."""

    tokens: list[str]
    index: dict[str, int] = field(repr=False)
    unit: np.ndarray = field(repr=False)  # shape (n, dimension), rows of norm 1
    # (token, line) of each all-zero row that was skipped, in file order
    zero_rows: list[tuple[str, int]] = field(default_factory=list, repr=False)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def __len__(self) -> int:
        return len(self.tokens)


def iter_lines(handle: TextIO) -> Iterator[str]:
    """The lines of an open file as ``str.splitlines()`` splits its whole text."""
    for physical in handle:
        yield from physical.splitlines()  # also at \x0c, \x85, \u2028, ...


def load_embeddings(source: str | TextIO) -> EmbeddingTable:
    """Parse embedding rows from text or an open text file; first occurrence
    wins for duplicate tokens.

    A seekable file is read twice, once to count its lines and once to parse
    them into one preallocated matrix, so neither its text nor its list of
    lines is ever held; a file that cannot seek (a pipe) is read whole.
    Zero rows are rejected with a warning (the table keeps their tokens and
    lines); a row whose width disagrees with the established dimension, or
    that has a non-finite component or a norm whose square underflows or
    overflows float64, is an error naming the offending line.
    """
    import numpy as np

    if not isinstance(source, str) and not source.seekable():
        source = source.read()
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
        capacity = len(lines)
    else:
        start = source.tell()
        capacity = sum(1 for _ in iter_lines(source))
        source.seek(start)
        lines = iter_lines(source)
    index: dict[str, int] = {}  # token -> row, in row order
    line_of: list[int] = []  # source line of each kept row
    matrix: np.ndarray | None = None
    zero_rows: list[tuple[str, int]] = []

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.rstrip().split(" ")
        if len(parts) < 2:
            raise EmbeddingFormatError("expected 'token v1 ... vD'", lineno)
        if matrix is None:  # the first row fixes the dimension
            matrix = np.empty((capacity, len(parts) - 1), dtype=np.float64)
        elif len(parts) - 1 != matrix.shape[1]:
            raise EmbeddingFormatError(
                f"dimension {len(parts) - 1} != established {matrix.shape[1]}", lineno
            )
        row = len(index)  # the next free row; kept only for a new, nonzero vector
        try:
            matrix[row] = parts[1:]  # numpy converts each string with float()
        except ValueError as exc:
            raise EmbeddingFormatError(f"non-numeric component: {exc}", lineno) from exc
        token = parts[0]
        if token in index:
            continue
        if not matrix[row].any():
            zero_rows.append((token, lineno))
            log.warning(ZERO_ROW_WARNING, token, lineno)
            continue
        index[token] = row
        line_of.append(lineno)

    if matrix is None:
        raise EmbeddingFormatError("no embedding rows found", 1)
    tokens = list(index)
    matrix = matrix[: len(tokens)]
    # row blocks bound the x*x temporary of norm; each row reduces on its own,
    # so the bits are those of one call on the whole matrix
    norms = np.empty(len(tokens))
    with np.errstate(over="ignore", invalid="ignore"):  # such rows are rejected below
        for start in range(0, len(tokens), NORM_BLOCK_ROWS):
            block = slice(start, start + NORM_BLOCK_ROWS)
            norms[block] = np.linalg.norm(matrix[block], axis=1)
    usable = (norms >= MIN_NORM) & (norms < np.inf)  # False for NaN too
    if not usable.all():
        row = int(np.argmin(usable))
        fault = ("non-finite component" if not np.isfinite(matrix[row]).all()
                 else "squared norm underflows or overflows float64")
        raise EmbeddingFormatError(f"{fault} for {tokens[row]!r}", line_of[row])
    matrix /= norms[:, None]  # in place: the table keeps only the unit-normalized rows
    return EmbeddingTable(tokens, index, matrix, zero_rows)


def file_sha256(path: str | Path) -> str:
    """The hex sha256 of a file's bytes, read in 1 MB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cache_dir() -> Path | None:
    """Where parsed tables are cached: ``$XDG_CACHE_HOME/eastgen/embeddings``,
    or ``~/.cache/eastgen/embeddings`` when that variable is unset, empty or
    relative; None when the home directory is unknown too."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "eastgen", "embeddings") if os.path.isabs(base) else None


def load_cached(path: str, parse: Callable[[str], EmbeddingTable]) -> EmbeddingTable:
    """The table ``parse(path)`` gives, read from the cache when an entry holds
    the parse of a file with the same bytes.

    Only a regular file is hashed and cached; anything else (a pipe, a FIFO,
    a path that cannot be read) goes straight to ``parse``, which reports
    its errors as it always does. A hit replays the zero-row warnings the
    parse logged. After a miss, the table is cached only if the file kept
    its size, mtime and inode while it was parsed; a failure to write the
    cache is logged at INFO and otherwise ignored.
    """
    root = cache_dir()
    try:
        before = os.stat(path)
        regular = root is not None and stat.S_ISREG(before.st_mode)
        digest = file_sha256(path) if regular else None
    except OSError:
        digest = None
    if digest is None:
        return parse(path)
    entry = root / _entry_name(digest)
    table = _read_entry(entry, digest)
    if table is not None:
        for token, line in table.zero_rows:
            log.warning(ZERO_ROW_WARNING, token, line)
        return table
    table = parse(path)
    try:
        if _identity(os.stat(path)) == _identity(before):
            _write_entry(root, entry, digest, table)
    except OSError as exc:
        log.info("embedding cache not written: %s", exc)
    return table


def _entry_name(digest: str) -> str:
    """The entry of a file's table. The versions keep an upgraded eastgen, or a
    numpy whose norm may round differently, from reading an older one's entries."""
    import numpy as np

    from . import __version__

    return f"v{CACHE_FORMAT}-{__version__}-numpy{np.__version__}-{digest}"


def _identity(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_size, st.st_mtime_ns, st.st_ino


def _read_entry(entry: Path, digest: str) -> EmbeddingTable | None:
    """The cached table, or None when the entry is missing or fails a check."""
    import numpy as np

    try:
        with open(entry, "rb") as handle:
            # np.load reads a real file straight into the array and leaves the
            # handle at its end, where the JSON starts
            unit = np.load(handle, allow_pickle=False)
            meta = json.loads(handle.read())
        if meta["sha256"] != digest:
            log.info("embedding cache entry %s holds another file", entry)
            return None
        tokens = meta["tokens"]
        zero_rows = [(token, line) for token, line in meta["zero_rows"]]
        index = dict(zip(tokens, range(len(tokens))))
    except FileNotFoundError:
        return None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        log.info("embedding cache entry %s unreadable: %s", entry, exc)
        return None
    if (unit.dtype != np.float64 or unit.ndim != 2 or len(unit) != len(tokens)
            or len(index) != len(tokens)):
        log.info("embedding cache entry %s has inconsistent shapes", entry)
        return None
    try:
        os.utime(entry)  # marks it most recently used for eviction
    except OSError as exc:
        log.info("embedding cache entry %s not touched: %s", entry, exc)
    return EmbeddingTable(tokens, index, unit, zero_rows)


def _write_entry(root: Path, entry: Path, digest: str, table: EmbeddingTable) -> None:
    """Write `table` as `entry` atomically, then keep only the CACHE_KEEP most
    recently used entries."""
    import numpy as np

    root.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=root, prefix=".tmp-")
    try:
        with open(fd, "wb") as handle:
            # np.save writes the array to a real file straight from its buffer
            np.save(handle, table.unit, allow_pickle=False)
            meta = {"sha256": digest, "tokens": table.tokens, "zero_rows": table.zero_rows}
            handle.write(json.dumps(meta).encode("utf-8"))
        os.replace(tmp, entry)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _evict(root)


def _evict(root: Path) -> None:
    """Keep the CACHE_KEEP most recently used entries. Remove unfinished writes
    older than STALE_WRITE_S, and every directory: format-1 entries and their
    unfinished writes, which no release reads any more."""
    entries, stale = [], time.time_ns() - STALE_WRITE_S * 10**9
    for item in os.scandir(root):
        if item.is_dir(follow_symlinks=False):
            shutil.rmtree(item.path, ignore_errors=True)
        elif not item.name.startswith("."):
            entries.append((item.stat(follow_symlinks=False).st_mtime_ns, item.path))
        elif item.stat(follow_symlinks=False).st_mtime_ns < stale:
            Path(item.path).unlink(missing_ok=True)  # another process may remove it too
    for _, path in sorted(entries, reverse=True)[CACHE_KEEP:]:
        Path(path).unlink(missing_ok=True)


def k_nearest(
    table: EmbeddingTable, query: str, k: int, among: Sequence[str] | None = None
) -> list[tuple[str, float]]:
    """The k nearest neighbors of one query: a block of one for k_nearest_block."""
    return k_nearest_block(table, [query], k, among)[0]


def k_nearest_block(
    table: EmbeddingTable, queries: Sequence[str], k: int,
    among: Sequence[str] | None = None,
) -> list[list[tuple[str, float]]]:
    """For each query, the k most cosine-similar tokens other than itself, in
    order of (-similarity, token); candidates are every row, or only the
    in-vocabulary tokens of `among`.

    One GEMM scores the block against the candidates, in len(queries) x
    candidates x 8 bytes, so callers bound the block. A GEMM score is off the
    exact dot product of two unit rows by at most about D x eps / 2 and
    ``math.fsum(unit[i] * q)``, a correctly rounded sum of correctly rounded
    products, by at most eps. So every candidate within 2 x (D + 2) x eps of a
    query's k-th GEMM score is kept and re-scored with ``fsum``, and the
    result is exact: the same whatever the block, the BLAS build or its
    kernel. Raises OutOfVocabularyError for the first query without a vector.
    """
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    for query in queries:
        if query not in table.index:
            raise OutOfVocabularyError(query)
    unit = table.unit
    rows = np.array([table.index[q] for q in queries], dtype=np.intp)
    if among is None:
        candidates = np.arange(len(table.tokens))
        scores = unit[rows] @ unit.T
    else:
        in_table = (table.index[t] for t in dict.fromkeys(among) if t in table.index)
        candidates = np.fromiter(in_table, dtype=np.intp)
        scores = unit[rows] @ unit[candidates].T
    scores[candidates[None, :] == rows[:, None]] = -np.inf  # no query is its own neighbor
    margin = 2 * (unit.shape[1] + 2) * np.finfo(np.float64).eps

    results = []
    for row, sims in zip(rows.tolist(), scores):
        if len(sims) > k:  # then the k-th score is finite
            kept = candidates[sims >= np.partition(sims, -k)[-k] - margin]
        else:
            kept = candidates[sims > -np.inf]
        exact = map(math.fsum, (unit[kept] * unit[row]).tolist())
        scored = sorted(zip(exact, kept.tolist()), key=lambda si: (-si[0], table.tokens[si[1]]))
        results.append([(table.tokens[i], sim) for sim, i in scored[:k]])
    return results
