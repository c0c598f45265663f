"""Weighted sampling of labeled sentences from a tree.

Traversal rules: order nodes expand children left to right; pick-one
nodes sample one child by weight; exchangeable nodes expand children in a
uniformly random order; a node with dropout d is skipped with probability
d before expansion (entity leaves are never skipped). Fixed leaves sample
a phrase proportionally to its dictionary count. Entity leaves draw a
surface form from the lexicon and, when embeddings are enabled and the
form is a single in-vocabulary token, re-sample the fill from the form
plus its k nearest neighbors with probability proportional to cosine
similarity (the form itself weighs 1.0).

Each intent's tree is compiled once per batch (once per `generate_one`
call) into nested closures: a node's kind, dropout and phrase count are
dispatched on, and its cumulative weights and pre-split phrases derived,
when it is compiled, never at a draw. The entity fill tables and kNN
pools the draws use are built once per batch, in each process that
samples it. A batch with at least as many draws as pools builds every
pool before it samples, in one k_nearest_block call (one per slot for
lexicon neighbors), so the embedding table is scored in one pass; a
smaller batch builds the pools it draws, QUERY_BLOCK forms at a time.
A draw is the `AnnotatedSentence` that parsing returns. Only
`generate_one` records provenance (the branch choices taken); recording
consumes no randomness of its own, so it draws what a batch draws.

A large batch draws most of its sentences many times, so it stays indexed
from sampling to the file: `generate_batch` returns a `Batch`, a frozen
record of each intent's distinct sentences and one 4-byte index per draw
that iterates as the drawn sentences, and `emit` renders each distinct
sentence once and writes the draws by index, a chunk of texts per write.
The batch's read-only `stats` are counted from its parts.

Each intent draws from its own stream, so `generate_batch` may sample
whole intents in parallel: it splits them into one share per CPU, samples
one share itself and each other share in an `os.fork()` child, and joins
the results in sorted-intent order. The output bytes are the same for any
CPU count. It forks only when no embedding table is in use, the batch has
at least PARALLEL_MIN_DRAWS draws (a fork costs milliseconds, which a
smaller batch barely wins back), the process may run on more than one CPU,
and no second thread is running (a fork copies no thread, but may copy a
lock one holds). With embeddings, sampling stays serial: even with every
pool built before the fork, a child pickles back a share whose draws are
mostly distinct, which costs what the split saves. Forking is only a fast
path: on any failure of it the whole batch is sampled again in this
process, the one path that returns the results or raises (at the first
failing intent in sorted order).

Randomness comes from a caller-seeded Mersenne Twister (random.Random);
only Random.random() is consumed, so byte-identical output for a given
seed is reproducible across platforms and Python versions. Weighted draws
bisect cumulative weights with the last cumulative value as the total
(not `sum()`, whose rounding changed in Python 3.12).
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import threading
from array import array
from bisect import bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from json.encoder import encode_basestring
from types import MappingProxyType
from typing import Iterable, TextIO

from .corpus import (
    INTENT_HEADER, AnnotatedSentence, Dataset, EntityLexicon, is_count,
)
from .east import (
    East, ENTITY, EXCHANGEABLE, FIXED, Node, ORDER, PICKONE, entity_slots, validate,
)
from .embeddings import EmbeddingTable, k_nearest_block
from .errors import MissingTrainingSizeError, TreeValidationError

OUTPUT_FORMATS = ("conll", "records")
# a batch with fewer draws than kNN pools builds them this many queries at a
# time, each block a pass over the embedding table
QUERY_BLOCK = 16
# generate_batch forks only for a batch of at least this many draws
PARALLEL_MIN_DRAWS = 10_000
# emit joins the texts of this many draws into one write
EMIT_CHUNK = 4096


@dataclass(frozen=True)
class GenerationConfig:
    """Sampling knobs; seed is mandatory so every run is reproducible."""

    seed: int
    k: int = 5
    factor: int = 2
    count: int | None = None  # per-intent absolute count; overrides factor
    use_embeddings: bool = True
    apply_dropout: bool = True
    weighted_lexicon: bool = False  # draw lexicon forms by frequency, not uniformly
    neighbors_within_lexicon: bool = False  # search neighbors in the slot lexicon only

    def __post_init__(self):
        for name in ("k", "factor", "count"):
            value = getattr(self, name)
            if not (is_count(value) or name == "count" and value is None):
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")


@dataclass(frozen=True)
class GenerationStats:
    """One batch's sidecar: per-intent counts plus substitution bookkeeping."""

    sentences_per_intent: Mapping[str, int]
    knn_fills: int
    oov_bypasses: int
    multi_token_bypasses: int
    total: int
    distinct: int

    @property
    def duplicate_rate(self) -> float:
        return 1.0 - self.distinct / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "sentences_per_intent": dict(self.sentences_per_intent),
            "knn_fills": self.knn_fills,
            "oov_substitution_bypasses": self.oov_bypasses,
            "multi_token_bypasses": self.multi_token_bypasses,
            "total": self.total,
            "duplicate_rate": round(self.duplicate_rate, 6),
        }


@dataclass(frozen=True)
class Batch:
    """The draws of one batch, iterated as the drawn sentences in order.

    `parts` holds, per intent in sorted order, the distinct sentences in
    first-drawn order and an array("I") with the index into them of every
    draw, so a draw costs 4 bytes and repeats share one object; `stats`
    counts them. Two batches are equal when their parts and stats are; call
    `list()` on a batch to index, slice or change its sentences.
    """

    parts: tuple[tuple[list[AnnotatedSentence], array], ...] = field(repr=False)
    stats: GenerationStats

    def __len__(self) -> int:
        return self.stats.total

    def __iter__(self):
        for distinct, draws in self.parts:
            yield from map(distinct.__getitem__, draws)


def _draw(cum: Sequence[float], random) -> int:
    # float residue lands in the last bucket
    i = bisect_right(cum, random() * cum[-1])
    return i if i < len(cum) else len(cum) - 1


class _Fills:
    """Per-slot form tables (cumulative counts, a (tokens, tags) pair per
    form) and kNN pools, built before sampling or on first use and shared
    by a batch's intents. Pools are derived from the form tables alone and
    keyed by (scope, form): see `scope`.
    The counters tally the substitutions of every draw made with it.
    """

    def __init__(self, lexicon: EntityLexicon, table: EmbeddingTable | None,
                 config: GenerationConfig):
        self.lexicon = lexicon
        self.table = table if config.use_embeddings else None
        self.config = config
        self.knn_fills = self.oov_bypasses = self.multi_token_bypasses = 0
        self.forms: dict[str, tuple[tuple[int, ...], tuple]] = {}
        self.pools: dict[tuple[str | None, str], tuple] = {}

    def load_forms(self, slot: str) -> tuple[tuple[int, ...], tuple]:
        counter = self.lexicon.entry(slot)
        forms = [tuple(form.split(" ")) for form in counter]
        tags = [(f"B-{slot}",) + (f"I-{slot}",) * (len(t) - 1) for t in forms]
        self.forms[slot] = (tuple(accumulate(counter.values())), tuple(zip(forms, tags)))
        return self.forms[slot]

    def scope(self, slot: str) -> str | None:
        """Whose forms a pool of `slot` searches: the slot's own for lexicon
        neighbors, else (None) the whole table, so one pool serves every slot."""
        return slot if self.config.neighbors_within_lexicon else None

    def unpooled(self, slot: str) -> list[str]:
        """The single-token, in-vocabulary forms of `slot` that have no pool
        yet, in lexicon order; loads the slot's form table first."""
        _, forms = self.forms.get(slot) or self.load_forms(slot)
        scope = self.scope(slot)
        return [t for (t, *more), _ in forms
                if not more and t in self.table and (scope, t) not in self.pools]

    def prebuild_pools(self, slots: Iterable[str], draws: int) -> None:
        """Load the form table of every one of `slots`, then build the pools
        of all their forms in one k_nearest_block call per scope when a batch
        of `draws` draws has no more pools than draws; a smaller batch builds
        the pools it draws as it draws them, QUERY_BLOCK at a time.
        """
        blocks: dict[str | None, dict[str, None]] = {}
        for slot in slots:
            blocks.setdefault(self.scope(slot), {}).update(dict.fromkeys(self.unpooled(slot)))
        if draws >= sum(map(len, blocks.values())):
            for scope, forms in blocks.items():
                if forms:
                    self.load_pools(scope, list(forms))

    def load_pools(self, scope: str | None, queries: list[str]) -> dict:
        """Build the pools of `queries` in `scope` in one k_nearest_block
        call. A pool takes no randomness and is exact in any call, so which
        forms share one changes nothing."""
        among = None if scope is None else [t for (t, *more), _ in self.forms[scope][1]
                                            if not more]
        neighbors = k_nearest_block(self.table, queries, self.config.k, among)
        for query, near in zip(queries, neighbors):
            kept = [(t, sim) for t, sim in near if sim > 0.0]  # sims are weights
            self.pools[(scope, query)] = (
                tuple(accumulate([1.0] + [sim for _, sim in kept])),
                ((query,),) + tuple((t,) for t, _ in kept),
            )
        return self.pools

    def substitute(self, slot: str, tokens: tuple[str, ...], random) -> tuple[str, ...]:
        """Re-sample a drawn form from itself plus its nearest neighbors."""
        if len(tokens) > 1:  # no composition rule for multi-token forms
            self.multi_token_bypasses += 1
            return tokens
        candidate = tokens[0]
        if candidate not in self.table:
            self.oov_bypasses += 1
            return tokens
        key = (self.scope(slot), candidate)
        pool = self.pools.get(key)
        if pool is None:  # a block: the candidate, then other forms without a pool
            others = [f for f in self.unpooled(slot) if f != candidate]
            pool = self.load_pools(key[0], [candidate] + others[:QUERY_BLOCK - 1])[key]
        cum, choices = pool
        i = _draw(cum, random)
        if i:
            self.knn_fills += 1
        return choices[i]


def _compile(node: Node, fills: _Fills, random, prov: list[str] | None):
    """Return a closure `sample(tokens, tags)` that appends one traversal of
    the tree under `node` to the two lists, appending branch choices to
    `prov` unless it is None. Each node's kind is dispatched on and its
    draw tables derived here, once; a draw consumes random() in the order
    of a left-to-right expansion. A dropout of None or 0 never drops its node.
    """
    kind = node.kind
    if kind in (ORDER, PICKONE, EXCHANGEABLE):
        parts = [_compile(child, fills, random, prov) for child in node.children]
    if kind == FIXED and len(node.dictionary) == 1:
        phrase, = node.dictionary
        phrase_tokens = phrase.split(" ")
        phrase_tags = ("O",) * len(phrase_tokens)

        def sample(tokens, tags):
            if prov is not None:
                prov.append("phrase:0")
            tokens += phrase_tokens
            tags += phrase_tags
    elif kind == FIXED:
        cum = tuple(accumulate(node.dictionary.values()))
        phrases = [(p.split(" "), ("O",) * (p.count(" ") + 1)) for p in node.dictionary]

        def sample(tokens, tags):
            j = _draw(cum, random)
            if prov is not None:
                prov.append(f"phrase:{j}")
            phrase_tokens, phrase_tags = phrases[j]
            tokens += phrase_tokens
            tags += phrase_tags
    elif kind == ENTITY:
        slot, slot_forms = node.slot, fills.forms
        weighted = fills.config.weighted_lexicon
        substitute = fills.substitute if fills.table is not None else None

        def sample(tokens, tags):
            forms_cum, forms = slot_forms.get(slot) or fills.load_forms(slot)
            i = _draw(forms_cum, random) if weighted else int(random() * len(forms))
            fill_tokens, fill_tags = forms[i]
            tokens += substitute(slot, fill_tokens, random) if substitute else fill_tokens
            tags += fill_tags
    elif kind == ORDER:
        def sample(tokens, tags):
            for part in parts:
                part(tokens, tags)
    elif kind == PICKONE:
        cum = tuple(accumulate(c.weight for c in node.children))

        def sample(tokens, tags):
            i = _draw(cum, random)
            if prov is not None:
                prov.append(f"pick:{i}")
            parts[i](tokens, tags)
    elif kind == EXCHANGEABLE:
        def sample(tokens, tags):
            perm = list(range(len(parts)))
            for i in range(len(perm) - 1, 0, -1):
                j = int(random() * (i + 1))
                perm[i], perm[j] = perm[j], perm[i]
            if prov is not None:
                prov.append("perm:" + ",".join(map(str, perm)))
            for i in perm:
                parts[i](tokens, tags)
    else:
        raise ValueError(f"unknown node kind {kind!r}")
    if node.dropout and fills.config.apply_dropout:
        inner, dropout = sample, node.dropout

        def sample(tokens, tags):
            dropped = random() < dropout
            if prov is not None:
                prov.append("drop" if dropped else "keep")
            if not dropped:
                inner(tokens, tags)
    return sample


def generate_one(
    tree: East,
    lexicon: EntityLexicon,
    table: EmbeddingTable | None,
    config: GenerationConfig,
    rng: random.Random,
) -> tuple[AnnotatedSentence, tuple[str, ...]]:
    """Sample one labeled sentence by a weighted traversal of the tree, and
    return it with its provenance: the branch choices taken. The tree is
    not checked; call validate() first on a tree built in code."""
    prov: list[str] = []
    tokens, tags = [], []
    _compile(tree.root, _Fills(lexicon, table, config), rng.random, prov)(tokens, tags)
    return AnnotatedSentence(tuple(tokens), tuple(tags), tree.intent), tuple(prov)


def _intent_seed(seed: int, intent: str) -> int:
    digest = hashlib.sha256(f"{seed}\x00{intent}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _sample_intent(intent: str, tree: East, n: int, fills: _Fills,
                   ) -> tuple[list[AnnotatedSentence], array]:
    """Draw `n` sentences of one intent from its own stream, seeded by
    (seed, intent). Returns the distinct sentences in first-drawn order and
    the index into them of every draw."""
    rng = random.Random(_intent_seed(fills.config.seed, intent))
    sample = _compile(tree.root, fills, rng.random, None)
    index: dict[tuple, int] = {}
    draws = array("I")  # 4 bytes a draw: 2**32 draws would not fit in memory
    for _ in range(n):
        tokens, tags = [], []
        sample(tokens, tags)
        draws.append(index.setdefault((tuple(tokens), tuple(tags)), len(index)))
    distinct = [AnnotatedSentence(tokens, tags, tree.intent) for tokens, tags in index]
    return distinct, draws


def _shares(counts: dict[str, int], fills: _Fills) -> list[list[str]]:
    """Split the intents into one share per usable CPU, or return no shares
    when the batch should stay in this process. The largest intent goes
    first, each to the least-loaded share; a share lists its intents sorted.
    """
    if (fills.table is not None or sum(counts.values()) < PARALLEL_MIN_DRAWS
            or not hasattr(os, "sched_getaffinity") or threading.active_count() != 1):
        return []
    shares: list[list[str]] = [[] for _ in range(min(len(os.sched_getaffinity(0)), len(counts)))]
    loads = [0] * len(shares)
    for intent in sorted(counts, key=lambda i: (-counts[i], i)):
        k = loads.index(min(loads))
        loads[k] += counts[intent]
        shares[k].append(intent)
    return [sorted(share) for share in shares]


def _sample(intents: Iterable[str], trees: dict[str, East], counts: dict[str, int],
            fills: _Fills) -> dict:
    """Sample each of `intents` in turn, keyed by intent (see _sample_intent)."""
    return {i: _sample_intent(i, trees[i], counts[i], fills) for i in intents}


def _sample_forked(trees: dict[str, East], counts: dict[str, int],
                   fills: _Fills) -> dict | None:
    """Sample the first of `_shares` here and every other share in a forked
    child, which sends its results back pickled through a pipe. A fast path
    that raises no error of its own: it returns None when there are fewer
    than two shares, a pipe or child cannot be made, a child fails or sends
    anything but its share's results, or this process's share raises.
    """
    shares = _shares(counts, fills)
    if len(shares) < 2:
        return None
    import pickle

    children: dict[int, tuple] = {}  # pid -> (read end of its pipe, share)
    try:
        for share in shares[1:]:
            try:
                read, write = os.pipe()
            except OSError:
                return None
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                return None
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    data = pickle.dumps(_sample(share, trees, counts, fills),
                                        pickle.HIGHEST_PROTOCOL)
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = (open(read, "rb"), share)
        try:
            results = _sample(shares[0], trees, counts, fills)
        except Exception:
            return None
        for pid, (pipe, share) in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            try:
                sent = pickle.loads(data) if status == 0 else None
            except Exception:  # short data
                return None
            del data
            if not isinstance(sent, dict) or sorted(sent) != share:
                return None
            results.update(sent)
    finally:
        for pid, (pipe, _) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def generate_batch(
    trees: dict[str, East],
    dataset: Dataset | None,
    config: GenerationConfig,
    table: EmbeddingTable | None = None,
    *,
    lexicon: EntityLexicon | None = None,
) -> Batch:
    """Sample `factor` times each intent's training size (or `count` each).

    Intents are processed in sorted order with a sub-seed derived from
    (seed, intent), so output is fully determined by the config seed and
    independent of tree-map ordering and of how many CPUs sample it.
    Duplicates are legitimate samples, and equal draws of an intent share
    one object. The returned Batch iterates as the drawn sentences (call
    `list()` on it to index or slice them), and its read-only `stats` count
    its draws. An intent without a training size, when `count` is unset,
    raises MissingTrainingSizeError, and a tree that validate() rejects
    raises TreeValidationError naming its intent, before any intent is sampled.
    """
    if lexicon is None:
        if dataset is None:
            raise ValueError("either a dataset or a lexicon is required")
        lexicon = dataset.lexicon
    intent_sizes = dataset.intent_counts() if dataset is not None else {}

    counts: dict[str, int] = {}
    for intent in sorted(trees):
        violations = validate(trees[intent])
        if violations:
            raise TreeValidationError([f"intent {intent!r}: {v}" for v in violations])
        if config.count is not None:
            counts[intent] = config.count
        elif intent in intent_sizes:
            counts[intent] = config.factor * intent_sizes[intent]
        else:
            raise MissingTrainingSizeError(intent)
    fills = _Fills(lexicon, table, config)
    if fills.table is not None:
        slots = set().union(*map(entity_slots, trees.values()))
        fills.prebuild_pools(sorted(slots), sum(counts.values()))
    results = _sample_forked(trees, counts, fills)
    if results is None:  # any failure samples again here, which returns or raises
        results = _sample(counts, trees, counts, fills)

    parts = tuple(results[intent] for intent in counts)
    return Batch(parts, GenerationStats(
        sentences_per_intent=MappingProxyType(counts),
        # forked children draw without a table, so their substitution counts are 0
        knn_fills=fills.knn_fills,
        oov_bypasses=fills.oov_bypasses,
        multi_token_bypasses=fills.multi_token_bypasses,
        total=sum(len(draws) for _, draws in parts),
        # sentences of two intents never compare equal
        distinct=sum(len(distinct) for distinct, _ in parts),
    ))


def _render_conll(s: AnnotatedSentence) -> str:
    head = f"{INTENT_HEADER} {s.intent}\n" if s.intent is not None else ""
    lines = [f"{token}\t{tag}\n" for token, tag in zip(s.tokens, s.slots)]
    return head + "".join(lines) + "\n"


def _render_record(s: AnnotatedSentence) -> str:
    # the bytes of json.dumps(record, ensure_ascii=False), which quotes each
    # str with encode_basestring
    tokens = ", ".join(map(encode_basestring, s.tokens))
    slots = ", ".join(map(encode_basestring, s.slots))
    intent = f', "intent": {encode_basestring(s.intent)}' if s.intent is not None else ""
    return f'{{"tokens": [{tokens}], "slots": [{slots}]{intent}}}\n'


_RENDERERS = {"conll": _render_conll, "records": _render_record}


def emit(
    sentences: Iterable[AnnotatedSentence],
    sink: TextIO,
    fmt: str,
) -> None:
    """Write sentences in an ingestion format so output can be re-parsed.

    Each distinct sentence, by hash and equality, is rendered once and its
    text written again for every repeat: most sentences of a large batch
    repeat one drawn before, whether or not equal ones share an object. A
    Batch arrives indexed; any other iterable is indexed here first.
    """
    render = _RENDERERS.get(fmt)
    if render is None:
        raise ValueError(f"unknown output format {fmt!r}")
    write = sink.write
    for distinct, draws in _indexed(sentences):
        texts = list(map(render, distinct))
        for a in range(0, len(draws), EMIT_CHUNK):
            write("".join(map(texts.__getitem__, draws[a:a + EMIT_CHUNK])))


def _indexed(sentences: Iterable) -> tuple[tuple[list, array], ...]:
    """(distinct sentences, index of every sentence) pairs, as Batch.parts."""
    if isinstance(sentences, Batch):
        return sentences.parts
    index: dict = {}
    draws = array("I")
    for s in sentences:
        draws.append(index.setdefault(s, len(index)))
    return ((list(index), draws),)
