import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import weakref
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from eastgen import (
    AnnotatedSentence,
    East,
    abstract_entities,
    deserialize,
    entity,
    exchangeable,
    fixed,
    order,
    parse_conll,
    parse_records,
    pick_one,
    serialize,
)
from eastgen.cli import main
from eastgen.east import (
    ENTITY, EXCHANGEABLE, FIXED, MAX_EXCHANGEABLE, ORDER, PICKONE, ROOT_KINDS,
)
from eastgen.regex_export import load_bundle, match

from conftest import AIRLINE_CONLL, cache_entries, split_over_three_cpus
from helpers import enumerate_language


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "train.conll"
    path.write_text(AIRLINE_CONLL, encoding="utf-8")
    return path


@pytest.fixture
def built(tmp_path, corpus_file):
    out = tmp_path / "trees"
    code = main(["build", str(corpus_file), "--out", str(out)])
    assert code == 0
    return out


class TestBuild:
    def test_writes_tree_lexicon_manifest(self, built):
        assert (built / "airline.east.json").exists()
        assert (built / "lexicon.json").exists()
        manifest = json.loads((built / "manifest.json").read_text())
        assert manifest["command"] == "build"
        assert manifest["config"]["threshold"] == 0.5
        assert sorted(manifest["outputs"]) == ["airline.east.json", "lexicon.json"]

    def test_tree_document_is_valid(self, built):
        tree = deserialize((built / "airline.east.json").read_text())
        assert tree.intent == "airline"

    def test_threshold_out_of_range_is_usage_error(self, corpus_file, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["build", str(corpus_file), "--threshold", "1.5",
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_empty_corpus_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        code = main(["build", str(empty), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "empty dataset" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("one two three four\n")
        code = main(["build", str(bad), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_parse_error_names_the_corpus_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("one two three four\n")
        assert main(["build", str(bad), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: line 1: expected 'token tag', got 4 fields: "
            "'one two three four'\n"
        )


class TestGenerate:
    def run(self, built, out, *extra):
        args = [
            "generate",
            "--trees", str(built),
            "--lexicon", str(built / "lexicon.json"),
            "--no-embeddings",
            "--seed", "7",
            "--count", "40",
            "--out", str(out),
        ]
        return main(args + list(extra))

    def test_count_and_outputs(self, built, tmp_path):
        out = tmp_path / "aug.conll"
        assert self.run(built, out) == 0
        sentences = parse_conll(out.read_text())
        assert len(sentences) == 40
        assert all(s.intent == "airline" for s in sentences)
        assert (tmp_path / "aug.conll.stats.json").exists()
        manifest = json.loads((tmp_path / "aug.conll.manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_factor_requires_corpus_sizes(self, built, corpus_file, tmp_path):
        out = tmp_path / "aug.conll"
        code = main([
            "generate", "--trees", str(built), "--corpus", str(corpus_file),
            "--no-embeddings", "--seed", "3", "--factor", "10",
            "--out", str(out),
        ])
        assert code == 0
        assert len(parse_conll(out.read_text())) == 30

    def test_lexicon_only_needs_count(self, built, tmp_path, capsys):
        code = main([
            "generate", "--trees", str(built),
            "--lexicon", str(built / "lexicon.json"),
            "--no-embeddings", "--seed", "3",
            "--out", str(tmp_path / "x.conll"),
        ])
        assert code == 1
        assert "--count" in capsys.readouterr().err

    def test_count_is_checked_before_the_table_loads(self, built, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("denver 1.0 0.1\nboston 1.0 0.2\n")
        code = main([
            "generate", "--trees", str(built),
            "--lexicon", str(built / "lexicon.json"),
            "--embeddings", str(vectors), "--seed", "3",
            "--out", str(tmp_path / "x.conll"),
        ])
        assert code == 1
        assert "--count" in capsys.readouterr().err
        assert cache_entries() == []  # the table was never parsed

    def test_embeddings_required_unless_disabled(self, built, tmp_path, capsys):
        code = main([
            "generate", "--trees", str(built),
            "--lexicon", str(built / "lexicon.json"),
            "--seed", "3", "--count", "5",
            "--out", str(tmp_path / "x.conll"),
        ])
        assert code == 1
        assert "--no-embeddings" in capsys.readouterr().err

    def test_embeddings_and_no_embeddings_are_exclusive(self, built, tmp_path):
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as err:
            self.run(built, tmp_path / "x.conll", "--embeddings", str(tmp_path / "absent.txt"))
        assert err.value.code == 2
        assert sorted(tmp_path.rglob("*")) == before  # no corpus, stats or manifest

    def test_seed_is_mandatory(self, built, tmp_path):
        with pytest.raises(SystemExit) as err:
            main([
                "generate", "--trees", str(built),
                "--lexicon", str(built / "lexicon.json"),
                "--no-embeddings", "--count", "5",
                "--out", str(tmp_path / "x.conll"),
            ])
        assert err.value.code == 2

    def test_identical_runs_identical_checksums(self, built, tmp_path):
        out1 = tmp_path / "a.conll"
        out2 = tmp_path / "b.conll"
        assert self.run(built, out1) == 0
        assert self.run(built, out2) == 0
        m1 = json.loads((tmp_path / "a.conll.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.conll.manifest.json").read_text())
        assert m1["outputs"]["a.conll"] == m2["outputs"]["b.conll"]
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_dropout_output_stays_in_language(self, built, tmp_path):
        out = tmp_path / "aug.conll"
        assert self.run(built, out, "--no-dropout") == 0
        tree = deserialize((built / "airline.east.json").read_text())
        language = enumerate_language(tree, include_dropout_variants=True)
        for s in parse_conll(out.read_text()):
            template, _ = abstract_entities(s)
            assert template in language

    def test_pipeline_closure(self, built, tmp_path):
        # generated output must re-ingest cleanly as a build input
        out = tmp_path / "aug.conll"
        assert self.run(built, out) == 0
        rebuild = tmp_path / "trees2"
        assert main(["build", str(out), "--out", str(rebuild)]) == 0
        assert (rebuild / "airline.east.json").exists()

    def test_records_format(self, built, tmp_path):
        out = tmp_path / "aug.jsonl"
        assert self.run(built, out, "--format", "records") == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert set(first) == {"tokens", "slots", "intent"}


class TestMalformedLexicon:
    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"city": ["oslo"]}', "'city'"),
            ('{"city": {"oslo": 1', "invalid"),
            ('["oslo"]', "object"),
            ('{"city": {"oslo": true}}', "'oslo'"),
            ('{"city": {"oslo": 0}}', "'oslo'"),
            ('{"city": {"oslo": "2"}}', "'oslo'"),
            ('{"city": {"oslo": 1.5}}', "'oslo'"),
            ('{"city": {"": 1}}', "''"),
            ('{"city": {"new  york": 1}}', "'new  york'"),
            ('{"city": {" oslo": 1}}', "' oslo'"),
            ('{"city": {"new\\tyork": 1}}', "'new\\tyork'"),
            ('{"": {"oslo": 1}}', "''"),
            ('{"city name": {"oslo": 1}}', "'city name'"),
            ('{"city\\u00a0name": {"oslo": 1}}', "'city\\xa0name'"),
        ],
    )
    def test_generate_exits_one_naming_the_entry(self, built, tmp_path, capsys, text, named):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(text)
        code = main([
            "generate", "--trees", str(built), "--lexicon", str(lexicon),
            "--no-embeddings", "--seed", "1", "--count", "3",
            "--out", str(tmp_path / "x.conll"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("error: lexicon:")
        assert named in err

    def test_export_regex_rejects_it_too(self, built, tmp_path, capsys):
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text('{"city_name": {"oslo": -1}}')
        code = main([
            "export-regex", "--trees", str(built), "--lexicon", str(lexicon),
            "--out", str(tmp_path / "regex"),
        ])
        assert code == 1
        assert "'oslo'" in capsys.readouterr().err


class TestNonUtf8Input:
    @pytest.mark.parametrize(
        "argv, stream",
        [
            (["generate", "--trees", "{built}", "--lexicon", "{bad}", "--no-embeddings",
              "--seed", "1", "--count", "3", "--out", "{out}"], "err"),
            (["generate", "--trees", "{built}", "--lexicon", "{built}/lexicon.json",
              "--embeddings", "{bad}", "--seed", "1", "--count", "3", "--out", "{out}"],
             "err"),
            (["generate", "--trees", "{bad}", "--lexicon", "{built}/lexicon.json",
              "--no-embeddings", "--seed", "1", "--count", "3", "--out", "{out}"], "err"),
            (["build", "{bad}", "--out", "{out}"], "err"),
            (["export-regex", "--trees", "{built}", "--lexicon", "{bad}", "--out", "{out}"],
             "err"),
            (["validate", "--corpus", "{bad}"], "out"),
            (["validate", "--trees", "{bad}"], "out"),
        ],
    )
    def test_exits_one_naming_the_file(self, built, tmp_path, capsys, argv, stream):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"caf\xe9\tO\n\xff\n")
        names = {"built": str(built), "bad": str(bad), "out": str(tmp_path / "out")}
        code = main([arg.format(**names) for arg in argv])
        captured = capsys.readouterr()
        assert code == 1
        assert str(bad) in getattr(captured, stream)
        assert "UTF-8" in getattr(captured, stream)
        assert "Traceback" not in captured.out + captured.err


    def test_streamed_embeddings_name_the_line_of_a_late_bad_byte(
        self, built, tmp_path, capsys
    ):
        bad = tmp_path / "vectors.txt"
        rows = "".join(f"w{i} {i % 7 + 1} 0.5 -0.25\n" for i in range(4000))
        bad.write_bytes(rows.encode() + b"caf\xe9 1 0 0\n")
        assert bad.stat().st_size > 64 * 1024  # past the decoder's first chunks
        code = main([
            "generate", "--trees", str(built), "--lexicon", str(built / "lexicon.json"),
            "--embeddings", str(bad), "--seed", "1", "--count", "3",
            "--out", str(tmp_path / "out.conll"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (line 4001)\n"
        assert not (tmp_path / "out.conll").exists()

    @pytest.mark.parametrize("target, name", [("--corpus", "latin.conll"),
                                              ("--trees", "latin.east.json")])
    def test_validate_names_the_file_once(self, tmp_path, capsys, target, name):
        bad = tmp_path / name
        bad.write_bytes(b"caf\xe9\tO\n")
        assert main(["validate", target, str(bad)]) == 1
        assert capsys.readouterr().out == (
            f"{bad}: not UTF-8 text (line 1)\n1 violation(s)\n"
        )

    def test_whole_file_reads_name_the_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.conll"
        bad.write_bytes(b"hi\tO\r\n\x0cyo\tO\n\ncaf\xe9\tO\n")
        assert main(["build", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (line 5)\n"


class TestAtomicOutput:
    def test_failed_emit_leaves_old_output_and_no_temp_file(
        self, built, tmp_path, capsys, monkeypatch
    ):
        def failing_emit(sentences, sink, fmt):
            sink.write("partial line\n" * 1000)
            raise OSError("disk full")

        out = tmp_path / "out" / "corpus.conll"
        out.parent.mkdir()
        out.write_text("previous corpus\n")
        monkeypatch.setattr("eastgen.cli.emit", failing_emit)
        code = main([
            "generate", "--trees", str(built), "--lexicon", str(built / "lexicon.json"),
            "--no-embeddings", "--seed", "1", "--count", "40", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert out.read_text() == "previous corpus\n"
        assert sorted(p.name for p in out.parent.iterdir()) == ["corpus.conll"]


class TestCountsBeyondFloatRange:
    def test_weighted_lexicon_exits_one(self, built, tmp_path, capsys):
        doc = json.loads((built / "lexicon.json").read_text())
        doc["city_name"] = {"boston": 10**400, "dallas": 1}
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(doc))
        code = main([
            "generate", "--trees", str(built), "--lexicon", str(lexicon),
            "--no-embeddings", "--weighted-lexicon", "--seed", "1", "--count", "3",
            "--out", str(tmp_path / "x.conll"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: lexicon: 'city_name': counts total beyond the float range\n"

    def test_tree_counts_exit_one(self, built, tmp_path, capsys):
        doc = {"intent": "x", "root": {"kind": "order", "children": [
            {"kind": "fixed", "dictionary": {"a": 10**308, "b": 10**308}}]}}
        tree = tmp_path / "huge.east.json"
        tree.write_text(json.dumps(doc))
        code = main([
            "generate", "--trees", str(tree), "--lexicon", str(built / "lexicon.json"),
            "--no-embeddings", "--seed", "1", "--count", "3",
            "--out", str(tmp_path / "x.conll"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (
            "error: huge.east.json: root.children[0]: "
            "phrase counts total beyond the float range\n"
        )


class TestTreeErrorsNameTheFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--trees", "{tree}", "--lexicon", "{built}/lexicon.json",
             "--no-embeddings", "--seed", "1", "--count", "3", "--out", "{out}"],
            ["export-regex", "--trees", "{tree}", "--lexicon", "{built}/lexicon.json",
             "--out", "{out}"],
            ["stats", "--trees", "{tree}"],
            ["stats", "--trees", "{dir}"],
        ],
    )
    @pytest.mark.parametrize(
        "root, message",
        [
            ({"kind": "order", "children": [{"kind": "bad"}]},
             "root.children[0]: unknown node kind 'bad'"),
            ({"kind": "order", "weight": 2, "children": [
                {"kind": "fixed", "dictionary": {"a": 1}}]},
             "root: weight 2.0 outside (0, 1]"),
        ],
    )
    def test_exits_one_naming_the_file(self, built, tmp_path, capsys, argv, root, message):
        folder = tmp_path / "broken"
        folder.mkdir()
        tree = folder / "bad.east.json"
        tree.write_text(json.dumps({"intent": "x", "root": root}))
        names = {"built": str(built), "tree": str(tree), "dir": str(folder),
                 "out": str(tmp_path / "out")}
        code = main([arg.format(**names) for arg in argv])
        assert code == 1
        assert capsys.readouterr().err == f"error: bad.east.json: {message}\n"


class TestNerFlow:
    def test_intent_free_corpus_with_synthetic_intent(self, tmp_path):
        ner = tmp_path / "ner.conll"
        ner.write_text(
            "EU\tB-ORG\nrejects\tO\ncall\tO\n\n"
            "Peter\tB-PER\nBlackburn\tI-PER\n\n"
            "Germany\tB-LOC\nimported\tO\nbeef\tO\n"
        )
        out = tmp_path / "trees"
        code = main([
            "build", str(ner), "--synthetic-intent", "ALL", "--out", str(out)
        ])
        assert code == 0
        tree = deserialize((out / "ALL.east.json").read_text())
        assert tree.intent == "ALL"

    def test_intent_free_corpus_without_synthetic_intent_fails(self, tmp_path, capsys):
        ner = tmp_path / "ner.conll"
        ner.write_text("EU\tB-ORG\n")
        code = main(["build", str(ner), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "intent" in capsys.readouterr().err

    def test_malformed_synthetic_intent_is_a_corpus_error(self, tmp_path, capsys):
        ner = tmp_path / "c.conll"
        ner.write_text("a O\nb B-x\n")
        out = tmp_path / "trees"
        code = main(["build", str(ner), "--synthetic-intent", " x", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {ner}: sentence 0, token 0: malformed synthetic intent ' x'\n"
        )
        assert not out.exists()


class TestEmbeddingsFlow:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("paris 1 0\nlyon 1 x\n",
             "line 2: non-numeric component: could not convert string to float: 'x'"),
            ("paris 1 0\nlyon 1\n", "line 2: dimension 1 != established 2"),
            ("", "line 1: no embedding rows found"),
        ],
    )
    def test_format_error_names_the_file(self, built, tmp_path, capsys, rows, message):
        vectors = tmp_path / "vec.txt"
        vectors.write_text(rows)
        code = main([
            "generate", "--trees", str(built), "--lexicon", str(built / "lexicon.json"),
            "--embeddings", str(vectors), "--seed", "1", "--count", "3",
            "--out", str(tmp_path / "out.conll"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: {vectors}: {message}\n"

    def test_generate_with_embedding_substitution(self, built, tmp_path):
        # vectors chosen so city names neighbor each other
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(
            "denver 1.0 0.1\nboston 1.0 0.2\ndallas 1.0 0.3\n"
            "daily 0.1 1.0\nmonthly 0.2 1.0\nweekly 0.15 1.0\n"
        )
        out = tmp_path / "aug.conll"
        code = main([
            "generate", "--trees", str(built),
            "--lexicon", str(built / "lexicon.json"),
            "--embeddings", str(vectors),
            "--k", "2", "--seed", "11", "--count", "60",
            "--out", str(out),
        ])
        assert code == 0
        sentences = parse_conll(out.read_text())
        assert len(sentences) == 60
        # a neighbor absent from the lexicon shows up via substitution
        filled = {
            token
            for s in sentences
            for token, tag in zip(s.tokens, s.slots)
            if tag == "B-flight_days"
        }
        assert "weekly" in filled
        stats = json.loads((tmp_path / "aug.conll.stats.json").read_text())
        assert stats["knn_fills"] > 0

    def test_the_table_is_freed_before_emit(self, built, tmp_path, monkeypatch):
        import eastgen.cli

        tables = []
        load, emit = eastgen.cli.load_embeddings, eastgen.cli.emit

        def load_and_watch(handle):
            table = load(handle)
            tables.append(weakref.ref(table))
            return table

        def emit_once_freed(sentences, sink, fmt):
            assert len(tables) == 1 and tables[0]() is None
            emit(sentences, sink, fmt)

        monkeypatch.setattr("eastgen.cli.load_embeddings", load_and_watch)
        monkeypatch.setattr("eastgen.cli.emit", emit_once_freed)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("denver 1.0 0.1\nboston 1.0 0.2\ndallas 1.0 0.3\n")
        code = main([
            "generate", "--trees", str(built), "--lexicon", str(built / "lexicon.json"),
            "--embeddings", str(vectors), "--seed", "3", "--count", "20",
            "--out", str(tmp_path / "aug.conll"),
        ])
        assert code == 0
        assert len(parse_conll((tmp_path / "aug.conll").read_text())) == 20


class TestEmbeddingCache:
    """`generate` reads a table it parsed before from the cache, and nothing
    else about a run changes."""

    def _generate(self, built, tmp_path, vectors, out="aug.conll"):
        return main([
            "generate", "--trees", str(built), "--lexicon", str(built / "lexicon.json"),
            "--embeddings", str(vectors), "--seed", "3", "--count", "20",
            "--out", str(tmp_path / out),
        ])

    def test_a_hit_does_not_call_load_embeddings(self, built, tmp_path, monkeypatch):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("denver 1.0 0.1\nboston 1.0 0.2\ndallas 1.0 0.3\n")
        assert self._generate(built, tmp_path, vectors, "miss.conll") == 0
        assert len(cache_entries()) == 1

        def no_load(handle):
            raise AssertionError("the table was parsed again")

        monkeypatch.setattr("eastgen.cli.load_embeddings", no_load)
        assert self._generate(built, tmp_path, vectors, "hit.conll") == 0
        assert (tmp_path / "hit.conll").read_bytes() == (tmp_path / "miss.conll").read_bytes()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("paris 1 0\nlyon 1 x\n",
             "line 2: non-numeric component: could not convert string to float: 'x'"),
            ("paris 1 0\nlyon inf 1\n", "line 2: non-finite component for 'lyon'"),
        ],
    )
    def test_a_format_error_is_the_same_on_every_run(
        self, built, tmp_path, capsys, rows, message
    ):
        vectors = tmp_path / "vec.txt"
        vectors.write_text(rows)
        for _ in range(2):
            assert self._generate(built, tmp_path, vectors) == 1
            assert capsys.readouterr().err == f"error: {vectors}: {message}\n"
        assert cache_entries() == []

    def test_a_fifo_loads_and_is_not_cached(self, built, tmp_path):
        fifo = tmp_path / "vectors.fifo"
        os.mkfifo(fifo)
        rows = "denver 1.0 0.1\nboston 1.0 0.2\ndallas 1.0 0.3\n"
        writer = threading.Thread(target=fifo.write_text, args=(rows,), daemon=True)
        writer.start()
        assert self._generate(built, tmp_path, fifo) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert len(parse_conll((tmp_path / "aug.conll").read_text())) == 20
        assert cache_entries() == []

    def test_miss_hit_and_unwritable_cache_print_and_write_the_same(
        self, built, tmp_path, cache_home
    ):
        """In a child, so that the zero-row warnings reach stderr as users see
        them; a cache directory that cannot be made only leaves the table
        uncached."""
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("denver 1.0 0.1\nnowhere 0 0\nboston 1.0 0.2\ndallas 1.0 0.3\n")
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache directory would be\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = []
        for run, home in [("miss", cache_home), ("hit", cache_home), ("unwritable", blocked)]:
            out = tmp_path / f"{run}.conll"
            done = subprocess.run(
                [sys.executable, "-m", "eastgen.cli", "generate", "--trees", str(built),
                 "--lexicon", str(built / "lexicon.json"), "--embeddings", str(vectors),
                 "--seed", "3", "--count", "20", "--out", str(out)],
                env=dict(env, XDG_CACHE_HOME=str(home)), capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            runs.append((done.stderr, out.read_bytes()))
            if run == "miss":
                assert len(cache_entries()) == 1
        assert runs[0] == runs[1] == runs[2]
        assert "skipping zero vector for token 'nowhere' (line 2)" in runs[0][0]
        assert blocked.read_text() == "a file where the cache directory would be\n"
        assert len(cache_entries()) == 1


class TestEmptySentences:
    """A tree that can drop every node carrying tokens can draw an empty
    sentence, which neither format can carry: conll re-parses to fewer
    sentences and a records line with no tokens fails to parse. So generate
    rejects such a tree before it samples, whatever the seed."""

    def run(self, tmp_path, out, *extra, dropout=0.9):
        tree = tmp_path / "a.east.json"
        tree.write_text(json.dumps({"intent": "a", "root": {
            "kind": "order",
            "children": [{"kind": "fixed", "dictionary": {"x": 1}, "dropout": dropout}],
        }}))
        (tmp_path / "lexicon.json").write_text("{}")
        return main([
            "generate", "--trees", str(tree), "--lexicon", str(tmp_path / "lexicon.json"),
            "--no-embeddings", "--seed", "1", "--count", "5", "--out", str(out), *extra,
        ])

    @pytest.mark.parametrize("fmt", ["conll", "records"])
    def test_generate_exits_one_naming_the_intent(self, tmp_path, capsys, fmt):
        out = tmp_path / "out" / "aug.txt"
        assert self.run(tmp_path, out, "--format", fmt) == 1
        err = capsys.readouterr().err
        assert err == ("error: the tree of intent 'a' can draw a sentence with no tokens: "
                       "dropout may skip every node that carries tokens\n")
        assert not out.parent.exists()

    def test_a_seed_that_draws_tokens_every_time_fails_too(self, tmp_path, capsys, monkeypatch):
        """The rule is on the tree, not the draws: at dropout 0.01, seed 1
        would draw 5 sentences of one token each, and generate still refuses
        the tree without sampling."""
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a tree that can draw no tokens")

        monkeypatch.setattr("eastgen.cli.generate_batch", no_sampling)
        out = tmp_path / "aug.conll"
        assert self.run(tmp_path, out, dropout=0.01) == 1
        assert "'a' can draw a sentence with no tokens" in capsys.readouterr().err
        assert not out.exists()

    def test_the_sorted_first_nullable_intent_is_named(self, tmp_path, capsys):
        for intent in ("c", "b"):
            (tmp_path / f"{intent}.east.json").write_text(json.dumps({"intent": intent, "root": {
                "kind": "pickone", "children": [
                    {"kind": "fixed", "dictionary": {"x": 1}, "weight": 0.5},
                    {"kind": "fixed", "dictionary": {"y": 1}, "weight": 0.5, "dropout": 0.5},
                ],
            }}))
        assert self.run(tmp_path, tmp_path / "aug.conll") == 1
        assert "'a' can draw" in capsys.readouterr().err
        (tmp_path / "a.east.json").unlink()
        assert main(["generate", "--trees", str(tmp_path), "--lexicon",
                     str(tmp_path / "lexicon.json"), "--no-embeddings", "--seed", "1",
                     "--count", "5", "--out", str(tmp_path / "aug.conll")]) == 1
        assert "'b' can draw" in capsys.readouterr().err

    def test_the_same_tree_without_dropout_generates(self, tmp_path):
        out = tmp_path / "aug.conll"
        assert self.run(tmp_path, out, "--no-dropout") == 0
        assert [s.tokens for s in parse_conll(out.read_text())] == [("x",)] * 5


_NUMPY_CHILD = """
import json, sys
import eastgen
from eastgen.cli import main

steps = [[0, "numpy" in sys.modules]]  # after import eastgen
for argv in json.loads(sys.argv[1]):
    try:
        code = main(argv)
    except SystemExit as exc:  # --version
        code = exc.code
    steps.append([code, "numpy" in sys.modules])
print(json.dumps(steps))
"""


def test_numpy_loads_only_with_embeddings(built, corpus_file, tmp_path):
    """Only loading an embedding table imports numpy (and its BLAS); the
    child starts clean, which this process, having imported numpy, is not."""
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("denver 1.0 0.1\nboston 1.0 0.2\n")
    generate = ["generate", "--trees", str(built), "--lexicon", str(built / "lexicon.json"),
                "--seed", "1", "--count", "20"]
    argvs = [
        ["--version"],
        ["build", str(corpus_file), "--out", str(tmp_path / "trees")],
        ["export-regex", "--trees", str(built), "--lexicon", str(built / "lexicon.json"),
         "--out", str(tmp_path / "bundles")],
        ["validate", "--trees", str(built)],
        ["validate", "--corpus", str(corpus_file)],
        ["stats", "--corpus", str(corpus_file)],
        ["stats", "--trees", str(built)],
        generate + ["--no-embeddings", "--out", str(tmp_path / "plain.conll")],
        generate + ["--embeddings", str(vectors), "--out", str(tmp_path / "knn.conll")],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _NUMPY_CHILD, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])  # [exit code, numpy loaded]
    assert steps == [[0, False]] * len(argvs) + [[0, True]]
    assert len(parse_conll((tmp_path / "knn.conll").read_text())) == 20


class TestExportRegex:
    def test_bundle_files(self, built, tmp_path):
        out = tmp_path / "bundles"
        code = main([
            "export-regex", "--trees", str(built),
            "--lexicon", str(built / "lexicon.json"),
            "--out", str(out),
        ])
        assert code == 0
        text = (out / "airline.regex.txt").read_text()
        assert text.startswith("# intent: airline\n")
        assert (out / "manifest.json").exists()


class TestValidate:
    def test_valid_trees_exit_zero(self, built, capsys):
        assert main(["validate", "--trees", str(built)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_weight_violation_exits_one_with_path(self, tmp_path, capsys):
        doc = {
            "intent": "x",
            "root": {
                "kind": "pickone",
                "children": [
                    {"kind": "fixed", "weight": 0.5, "dictionary": {"a": 1}},
                    {"kind": "fixed", "weight": 0.6, "dictionary": {"b": 1}},
                ],
            },
        }
        path = tmp_path / "bad.east.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--trees", str(path)]) == 1
        assert "root" in capsys.readouterr().out

    def test_a_field_the_kind_does_not_carry_exits_one_with_path(self, tmp_path, capsys):
        """Once dropped on load, so the file validated as ok."""
        doc = {"intent": "x", "root": {"kind": "order", "children": [
            {"kind": "fixed", "dictionary": {"a": 1}, "slot": "s"}]}}
        path = tmp_path / "bad.east.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--trees", str(path)]) == 1
        assert capsys.readouterr().out == (
            "bad.east.json: root.children[0]: fixed node must not have slot\n1 violation(s)\n"
        )

    def test_corpus_iob_violation_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("Beijing\tI-LOC\n")
        assert main(["validate", "--corpus", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "sentence 0" in out

    def test_valid_corpus_exit_zero(self, corpus_file):
        assert main(["validate", "--corpus", str(corpus_file)]) == 0

    def test_duplicate_intent_detected(self, built, tmp_path, capsys):
        clone_dir = tmp_path / "dup"
        clone_dir.mkdir()
        source = (built / "airline.east.json").read_text()
        (clone_dir / "a.east.json").write_text(source)
        (clone_dir / "b.east.json").write_text(source)
        assert main(["validate", "--trees", str(clone_dir)]) == 1
        assert "duplicate" in capsys.readouterr().out


class TestStats:
    def test_corpus_occurrence_table(self, corpus_file, capsys):
        assert main(["stats", "--corpus", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "vocab size: 30" in out
        assert "intents: 1" in out
        assert "slot labels: 4" in out
        assert "city_name: 1/1 (100.00%)" in out
        assert "flight_days: 2/3 (66.67%)" in out
        assert "month_name: 2/3 (66.67%)" in out
        assert "day_number: 2/3 (66.67%)" in out

    def test_corpus_occurrence_shows_the_side_of_one_half(self, tmp_path, capsys):
        # 126 of 250 sentences (a main entity at threshold 0.5) against 1 of
        # 2 (not one): a whole percentage prints both as 50%
        sentence = "# intent: {}\ngo\tO\n{}\n\n"
        corpus = tmp_path / "half.conll"
        corpus.write_text("".join(
            [sentence.format("a", "oslo\tB-city")] * 126
            + [sentence.format("a", "now\tO")] * 124
            + [sentence.format("b", "oslo\tB-city"), sentence.format("b", "now\tO")]
        ))
        assert main(["stats", "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "intent 'a':\n  city: 63/125 (50.40%)\n" in out
        assert "intent 'b':\n  city: 1/2 (50.00%)\n" in out

    def test_average_sentence_length(self, corpus_file, capsys):
        main(["stats", "--corpus", str(corpus_file)])
        out = capsys.readouterr().out
        # (13 + 12 + 11) / 3
        assert "average sentence length: 12.00" in out

    def test_tree_summary(self, built, capsys):
        assert main(["stats", "--trees", str(built)]) == 0
        out = capsys.readouterr().out
        assert "intent 'airline'" in out
        assert "exchangeable=1" in out

    def test_empty_corpus_errors(self, tmp_path, capsys):
        empty = tmp_path / "none.conll"
        empty.write_text("")
        assert main(["stats", "--corpus", str(empty)]) == 1


class TestManifest:
    def test_lists_every_option(self, built, corpus_file, tmp_path):
        manifest = json.loads((built / "manifest.json").read_text())
        assert manifest["inputs"] == {"corpus": str(corpus_file)}
        assert manifest["config"] == {
            "format": "conll", "singleton_main": False, "synthetic_intent": None,
            "threshold": 0.5,
        }
        out = tmp_path / "aug.conll"
        assert main([
            "generate", "--trees", str(built), "--corpus", str(corpus_file),
            "--no-embeddings", "--seed", "3", "--out", str(out),
        ]) == 0
        manifest = json.loads((tmp_path / "aug.conll.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["inputs"] == {
            "corpus": str(corpus_file), "embeddings": None, "lexicon": None,
            "trees": str(built),
        }
        assert manifest["config"] == {
            "count": None, "factor": 2, "format": "conll", "k": 5,
            "neighbors_from_lexicon": False, "no_dropout": False, "no_embeddings": True,
            "seed": 3, "synthetic_intent": None, "weighted_lexicon": False,
        }

    def test_synthetic_intent_is_recorded(self, built, tmp_path):
        mix = tmp_path / "mix.conll"
        mix.write_text(AIRLINE_CONLL + "\n\nhello\tO\nthere\tO\n")
        configs = []
        for intent in "AB":
            out = tmp_path / f"{intent}.conll"
            assert main([
                "generate", "--trees", str(built), "--corpus", str(mix),
                "--synthetic-intent", intent, "--no-embeddings", "--seed", "3",
                "--out", str(out),
            ]) == 0
            configs.append(json.loads((tmp_path / f"{intent}.conll.manifest.json")
                                      .read_text())["config"])
        assert configs[0]["synthetic_intent"] == "A"
        assert configs[1] == {**configs[0], "synthetic_intent": "B"}


class TestTreeFiles:
    def test_validate_on_a_directory_without_trees_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["validate", "--trees", str(empty)]) == 1
        assert capsys.readouterr().err == f"error: no .east.json documents under {empty}\n"

    def test_generate_names_the_file_of_a_duplicate_intent(self, built, tmp_path, capsys):
        clone_dir = tmp_path / "dup"
        clone_dir.mkdir()
        source = (built / "airline.east.json").read_text()
        (clone_dir / "a.east.json").write_text(source)
        (clone_dir / "b.east.json").write_text(source)
        code = main([
            "generate", "--trees", str(clone_dir), "--lexicon", str(built / "lexicon.json"),
            "--no-embeddings", "--seed", "1", "--count", "3",
            "--out", str(tmp_path / "x.conll"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: duplicate tree for intent 'airline' in b.east.json\n"
        )

    def test_per_intent_file_names_are_safe_and_distinct(self, tmp_path):
        corpus = tmp_path / "two.conll"
        corpus.write_text("# intent: a b\nhi\tO\n\n# intent: a_b\nyo\tO\n")
        trees = tmp_path / "trees"
        assert main(["build", str(corpus), "--out", str(trees)]) == 0
        assert sorted(p.name for p in trees.iterdir()) == [
            "a_b.east.json", "a_b_2.east.json", "lexicon.json", "manifest.json"
        ]
        assert deserialize((trees / "a_b.east.json").read_text()).intent == "a b"
        assert deserialize((trees / "a_b_2.east.json").read_text()).intent == "a_b"
        bundles = tmp_path / "bundles"
        assert main([
            "export-regex", "--trees", str(trees), "--lexicon", str(trees / "lexicon.json"),
            "--out", str(bundles),
        ]) == 0
        assert (bundles / "a_b.regex.txt").read_text().startswith("# intent: a b\n")
        assert (bundles / "a_b_2.regex.txt").read_text().startswith("# intent: a_b\n")

    def test_per_intent_file_names_differ_by_more_than_case(self, tmp_path):
        # a case-insensitive file system would store Greet and greet as one file
        corpus = tmp_path / "cases.conll"
        corpus.write_text("# intent: Greet\nhi\tO\n\n# intent: greet\nyo\tO\n")
        trees = tmp_path / "trees"
        assert main(["build", str(corpus), "--out", str(trees)]) == 0
        manifest = json.loads((trees / "manifest.json").read_text())
        names = sorted(name for name in manifest["outputs"] if name.endswith(".east.json"))
        assert names == ["Greet.east.json", "greet_2.east.json"]
        assert len({name.casefold() for name in names}) == 2
        assert {deserialize((trees / name).read_text()).intent for name in names} == {
            "Greet", "greet"
        }


class TestStaleOutputs:
    """A re-run into the same directory removes the per-intent files its
    previous manifest listed and it did not write again; nothing else."""

    @pytest.fixture
    def corpora(self, tmp_path):
        both = tmp_path / "both.conll"
        both.write_text("# intent: a\nhi\tO\nparis\tB-city\n\n# intent: b\nyo\tO\n")
        only_a = tmp_path / "a.conll"
        only_a.write_text("# intent: a\nhi\tO\nparis\tB-city\n")
        return both, only_a

    def test_build_removes_trees_of_dropped_intents(self, corpora, tmp_path):
        both, only_a = corpora
        out = tmp_path / "out"
        assert main(["build", str(both), "--out", str(out)]) == 0
        assert (out / "b.east.json").exists()
        assert main(["build", str(only_a), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "a.east.json", "lexicon.json", "manifest.json"
        ]
        corpus = tmp_path / "gen.conll"
        assert main([
            "generate", "--trees", str(out), "--corpus", str(only_a), "--no-embeddings",
            "--seed", "1", "--count", "5", "--out", str(corpus),
        ]) == 0
        assert "# intent: b" not in corpus.read_text()
        assert "# intent: a" in corpus.read_text()

    def test_export_regex_removes_bundles_of_dropped_intents(self, corpora, tmp_path):
        both, only_a = corpora
        bundles = tmp_path / "bundles"
        for corpus in (both, only_a):
            trees = tmp_path / corpus.stem
            assert main(["build", str(corpus), "--out", str(trees)]) == 0
            assert main([
                "export-regex", "--trees", str(trees),
                "--lexicon", str(trees / "lexicon.json"), "--out", str(bundles),
            ]) == 0
        assert sorted(p.name for p in bundles.iterdir()) == ["a.regex.txt", "manifest.json"]
        manifest = json.loads((bundles / "manifest.json").read_text())
        assert sorted(manifest["outputs"]) == ["a.regex.txt"]

    def test_unlisted_files_survive(self, corpora, tmp_path):
        both, only_a = corpora
        out = tmp_path / "out"
        assert main(["build", str(both), "--out", str(out)]) == 0
        hand = out / "hand.east.json"
        hand.write_text((out / "b.east.json").read_text())
        (out / "notes.regex.txt").write_text("kept\n")
        assert main(["build", str(only_a), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "a.east.json", "hand.east.json", "lexicon.json", "manifest.json",
            "notes.regex.txt",
        ]

    @pytest.mark.parametrize(
        "manifest",
        ["not json", '{"outputs": 3}', '["b.east.json"]',
         '{"outputs": {"../b.east.json": "", "b.east.json/": "", "7": ""}}'],
    )
    def test_a_foreign_manifest_removes_nothing_outside_its_listing(
        self, corpora, tmp_path, manifest
    ):
        both, only_a = corpora
        out = tmp_path / "out"
        assert main(["build", str(both), "--out", str(out)]) == 0
        (out / "manifest.json").write_text(manifest)
        (tmp_path / "b.east.json").write_text("outside\n")
        assert main(["build", str(only_a), "--out", str(out)]) == 0
        assert (out / "b.east.json").exists()
        assert (tmp_path / "b.east.json").read_text() == "outside\n"


class TestMissingTrainingSize:
    def test_intent_absent_from_the_corpus_exits_one(self, built, tmp_path, capsys):
        other = tmp_path / "other.conll"
        other.write_text(AIRLINE_CONLL.replace("# intent: airline", "# intent: travel"))
        code = main([
            "generate", "--trees", str(built), "--corpus", str(other),
            "--no-embeddings", "--seed", "1", "--out", str(tmp_path / "x.conll"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: no training size for intent 'airline': not in the corpus; "
            "pass --count\n"
        )


class TestTextRule:
    """Whatever eastgen accepts must re-parse from the files it writes."""

    def test_records_round_trip(self, tmp_path):
        records = [
            {"tokens": ["fly", "to", "new", "york"],
             "slots": ["O", "O", "B-city", "I-city"], "intent": "book flight"},
            {"tokens": ["fly", "to", "oslo", "now"],
             "slots": ["O", "O", "B-city", "O"], "intent": "book flight"},
        ]
        corpus = tmp_path / "train.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        trees = tmp_path / "trees"
        assert main(["build", str(corpus), "--format", "records", "--out", str(trees)]) == 0
        for fmt, parse in (("conll", parse_conll), ("records", parse_records)):
            out = tmp_path / f"aug.{fmt}"
            assert main([
                "generate", "--trees", str(trees), "--lexicon", str(trees / "lexicon.json"),
                "--count", "4", "--format", fmt, "--no-embeddings", "--seed", "5",
                "--out", str(out),
            ]) == 0
            sentences = parse(out.read_text())
            assert len(sentences) == 4
            assert {s.intent for s in sentences} == {"book flight"}
            assert {s.tokens[2] for s in sentences} <= {"new", "oslo"}

    @pytest.mark.parametrize(
        "intent, phrase, message",
        [
            ("x", "hello\tthere", "root.children[0]: malformed phrase 'hello\\tthere'"),
            ("x\ny", "hello", "root: intent must be one non-empty trimmed line, got 'x\\ny'"),
        ],
    )
    def test_tree_text_that_would_not_re_parse_exits_one(
        self, built, tmp_path, capsys, intent, phrase, message
    ):
        tree = tmp_path / "bad.east.json"
        root = {"kind": "order", "children": [{"kind": "fixed", "dictionary": {phrase: 1}}]}
        tree.write_text(json.dumps({"intent": intent, "root": root}))
        code = main([
            "generate", "--trees", str(tree), "--lexicon", str(built / "lexicon.json"),
            "--no-embeddings", "--seed", "1", "--count", "3",
            "--out", str(tmp_path / "x.conll"),
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: bad.east.json: {message}\n"
        assert not (tmp_path / "x.conll").exists()

    def test_records_label_with_a_space_is_rejected_before_build(self, tmp_path, capsys):
        corpus = tmp_path / "train.jsonl"
        corpus.write_text(json.dumps(
            {"tokens": ["to", "oslo"], "slots": ["O", "B-city name"], "intent": "x"}
        ) + "\n")
        assert main(["validate", "--corpus", str(corpus), "--format", "records"]) == 1
        assert "malformed slot tag 'B-city name'" in capsys.readouterr().out
        trees = tmp_path / "trees"
        assert main(["build", str(corpus), "--format", "records", "--out", str(trees)]) == 1
        assert "malformed slot tag 'B-city name'" in capsys.readouterr().err
        assert not trees.exists()


# --- fuzzing: any bytes in, exit 0 or 1 out, never a traceback ------------------

_CORPUS_LINES = st.sampled_from([
    "# intent: a", "# intent: b c", "# intent:", "#intent:a", "x O", "y\tB-city",
    "z I-city", "w I-x", "é\tO", "a b c", "", " ", "\t",
    '{"tokens": ["a"], "slots": ["O"], "intent": "x"}',
    '{"tokens": ["a", "b"], "slots": ["B-c", "I-c"]}',
    '{"tokens": ["a"], "slots": ["B-c"], "intent": "../x"}',
    '{"tokens": [], "slots": []}', '{"tokens": ["a b"], "slots": ["O"], "intent": "x"}',
    '{"tokens": ["a"], "slots": ["O"], "intent": 1}', '{"tokens": 1}', "[1]", "null",
    '{"tokens": ["a"], "slots": ["O"], "x": 1}', "[" * 3000,
])
_NODE_KINDS = st.sampled_from(["order", "pickone", "exchangeable", "fixed", "entity", "x"])
_NUMBERS = st.one_of(
    st.integers(-2, 2), st.floats(allow_nan=True), st.just(10**400), st.text(max_size=2)
)
_NODES = st.recursive(
    st.fixed_dictionaries(
        {"kind": _NODE_KINDS},
        optional={"dictionary": st.dictionaries(st.text(max_size=6), _NUMBERS, max_size=3),
                  "slot": st.one_of(st.text(max_size=4), st.integers()),
                  "weight": _NUMBERS, "dropout": _NUMBERS},
    ),
    lambda children: st.fixed_dictionaries(
        {"kind": _NODE_KINDS, "children": st.lists(children, max_size=3)},
        optional={"weight": _NUMBERS, "dropout": _NUMBERS},
    ),
    max_leaves=8,
)
_TREE_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"root": _NODES}, optional={"intent": st.one_of(st.text(max_size=5), st.none())}
    ),
    st.just({"intent": "a", "root": {"kind": "order", "children": [
        {"kind": "fixed", "dictionary": {"hi there": 2}},
        {"kind": "entity", "slot": "city"}], "dropout": 0.5}}),
).map(lambda doc: json.dumps(doc).encode())


@st.composite
def with_a_byte_put_in(draw, data: bytes) -> bytes:
    """`data` with, sometimes, one odd byte (invalid UTF-8 among them) put in."""
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x00", b"\xc3"])) + data[at:]
    return data


@st.composite
def spliced(draw, documents):
    """A document's bytes with, sometimes, a few arbitrary bytes put in
    (invalid UTF-8 among them) or arbitrary bytes instead."""
    return draw(with_a_byte_put_in(draw(st.one_of(documents, st.binary(max_size=200)))))


# sound trees, drawn from the east constructors, so that most examples get
# as far as sampling and lowering
_DROPOUTS = st.sampled_from([None, 0.0, 0.5, 0.9])
_SOUND_LEAVES = st.one_of(
    st.builds(fixed, st.dictionaries(st.sampled_from(["hi", "hi there", "to", "é"]),
                                     st.integers(1, 3), min_size=1, max_size=2),
              dropout=_DROPOUTS),
    st.builds(entity, st.sampled_from(["city", "day"])),
)
_FUZZ_LEXICON = '{"city": {"denver": 1, "new york": 2}, "day": {"today": 1}}'
_MAX_PATHS = 1000


@st.composite
def sound_nodes(draw, depth: int, kinds=(ORDER, PICKONE, EXCHANGEABLE)):
    """A valid subtree at most `depth` control levels deep whose root is a
    leaf or one of `kinds`; pick-one weights sum to 1."""
    if kinds != ROOT_KINDS and (depth == 0 or draw(st.booleans())):
        return draw(_SOUND_LEAVES)
    kind = draw(st.sampled_from(kinds))
    most = MAX_EXCHANGEABLE if kind == EXCHANGEABLE else 3
    children = draw(st.lists(sound_nodes(depth - 1), min_size=1, max_size=most))
    dropout = draw(_DROPOUTS)
    if kind == PICKONE:
        shares = draw(st.lists(st.integers(1, 3), min_size=len(children),
                               max_size=len(children)))
        children = [replace(c, weight=k / sum(shares)) for c, k in zip(children, shares)]
        return pick_one(*children, dropout=dropout)
    return (order if kind == ORDER else exchangeable)(*children, dropout=dropout)


def paths(node) -> int:
    """How many traversals of `node` there are, absences by dropout included."""
    if node.kind == FIXED:
        n = len(node.dictionary)
    elif node.kind == ENTITY:
        n = 1
    elif node.kind == PICKONE:
        n = sum(map(paths, node.children))
    else:
        n = math.prod(map(paths, node.children))
        if node.kind == EXCHANGEABLE:
            n *= math.factorial(len(node.children))
    return n + bool(node.dropout)


_SOUND_ROOTS = sound_nodes(3, ROOT_KINDS).filter(lambda root: paths(root) <= _MAX_PATHS)


def value_paths(doc, path=()):
    """The key and index path of every value inside a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from value_paths(value, path + (key,))


# no value raises the traversal count of a tree more than twofold (a dropout
# doubles it at most), so the language of any tree that loads stays small
_ODD_VALUES = st.sampled_from([
    0, -1, 0.5, 2, 10**400, float("nan"), "", "a b", "a\tb", " x", "x\ny", "b", None, True,
    [], {}, "pickone", "fixed", "entity", "gap",
    {"kind": "order", "children": [{"kind": "entity", "slot": "city"}], "extra": 1},
    {"kind": "order", "children": [{"kind": "order", "children": [{"kind": "entity",
                                                                  "slot": "day"}]}]},
])


@st.composite
def sound_tree_documents(draw) -> list[bytes]:
    """The documents of one to three sound trees of distinct intents (no more
    than _MAX_PATHS traversals each); in half the draws one JSON value of one
    of them is replaced, in the other half a byte may be put into one."""
    intents = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    docs = [json.loads(serialize(East(intent, draw(_SOUND_ROOTS)))) for intent in intents]
    data = [json.dumps(doc).encode() for doc in docs]
    which = draw(st.integers(0, len(docs) - 1))
    if draw(st.booleans()):
        *parents, key = draw(st.sampled_from(list(value_paths(docs[which]))))
        target = docs[which]
        for step in parents:
            target = target[step]
        target[key] = draw(_ODD_VALUES)
        data[which] = json.dumps(docs[which]).encode()
    else:
        data[which] = draw(with_a_byte_put_in(data[which]))
    return data


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_SOUND_TREE = json.dumps({"intent": "a", "root": {
    "kind": "order", "children": [{"kind": "entity", "slot": "city"}], "dropout": 0.5,
}}).encode()
FUZZ = settings(
    max_examples=80, deadline=None,
    # each example writes into a directory of its own under tmp_path
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestFuzz:
    @FUZZ
    @given(
        spliced(st.lists(_CORPUS_LINES, max_size=12).map(lambda ls: "\n".join(ls).encode())),
        st.sampled_from(["conll", "records"]),
        st.sampled_from([[], ["--synthetic-intent", "ALL"]]),
    )
    def test_build_on_any_bytes(self, tmp_path, data, fmt, extra):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        corpus = work / "corpus"
        corpus.write_bytes(data)
        argv = ["build", str(corpus), "--format", fmt, "--out", str(work / "trees"), *extra]
        code, out, err = run_main(argv)
        assert code in (0, 1)
        assert "Traceback" not in out + err
        if code == 1:
            assert err.startswith("error:")

    @FUZZ
    @given(spliced(_TREE_DOCS))
    def test_validate_on_any_tree_bytes(self, tmp_path, data):
        """Violations of a tree that parses are a report on standard output
        (see TestValidate); anything else exits 1 with an error line."""
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "t.east.json").write_bytes(data)
        code, out, err = run_main(["validate", "--trees", str(work)])
        assert code in (0, 1)
        assert "Traceback" not in out + err
        if code == 1:
            assert err.startswith("error:") or (not err and out.endswith("violation(s)\n"))

    @FUZZ
    @given(spliced(_TREE_DOCS), st.sampled_from([[], ["--no-dropout"]]))
    @example(_SOUND_TREE, [])  # seed 1 drops the root: a sentence with no tokens
    @example(_SOUND_TREE, ["--no-dropout"])  # every command exits 0
    def test_tree_commands_on_any_tree_bytes(self, tmp_path, data, dropout):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        (work / "t.east.json").write_bytes(data)
        lexicon = work / "lexicon.json"
        lexicon.write_text('{"city": {"denver": 1, "new york": 2}}')
        for argv in (
            ["generate", "--trees", str(work), "--lexicon", str(lexicon),
             "--no-embeddings", "--seed", "1", "--count", "3",
             "--out", str(work / "aug.conll"), *dropout],
            ["export-regex", "--trees", str(work), "--lexicon", str(lexicon),
             "--out", str(work / "regex")],
            ["stats", "--trees", str(work)],
        ):
            code, out, err = run_main(argv)
            assert code in (0, 1)
            assert "Traceback" not in out + err
            if code == 1:
                assert err.startswith("error:")

    @FUZZ
    @given(sound_tree_documents(), st.sampled_from([[], ["--no-dropout"]]),
           st.sampled_from(["conll", "records"]))
    def test_sound_trees_end_to_end(self, tmp_path, docs, dropout, fmt):
        """Commands on (mostly) sound trees exit 0 or 1 as on any bytes; what
        generate writes re-parses, stays in each tree's language, matches its
        exported bundle, and is the same whether or not the batch is split
        over forked processes."""
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        trees = work / "trees"
        trees.mkdir()
        for i, data in enumerate(docs):
            (trees / f"t{i}.east.json").write_bytes(data)
        lexicon = work / "lexicon.json"
        lexicon.write_text(_FUZZ_LEXICON)

        def generate(out: Path) -> tuple[int, str, str]:
            return run_main(["generate", "--trees", str(trees), "--lexicon", str(lexicon),
                             "--no-embeddings", "--seed", "1", "--count", "12",
                             "--format", fmt, "--out", str(out), *dropout])

        serial = generate(work / "serial" / "aug")
        with pytest.MonkeyPatch.context() as patch:  # for this example only
            forked = split_over_three_cpus(patch)
            split = generate(work / "split" / "aug")
        exported = run_main(["export-regex", "--trees", str(trees), "--lexicon", str(lexicon),
                             "--out", str(work / "regex")])
        for code, out, err in (serial, split, exported, run_main(["stats", "--trees", str(trees)])):
            assert code in (0, 1)
            assert "Traceback" not in out + err
            if code == 1:
                assert err.startswith("error:")
        code, _, err = serial
        event("reached sampling" if code == 0
              else "rejected as nullable" if "can draw a sentence with no tokens" in err
              else "stopped before")
        assert (split[0], split[2]) == (code, err)
        if code != 0:
            return
        for name in ("aug", "aug.stats.json"):
            assert (work / "split" / name).read_bytes() == (work / "serial" / name).read_bytes()

        text = (work / "serial" / "aug").read_text(encoding="utf-8")
        sentences = (parse_conll if fmt == "conll" else parse_records)(text)
        assert sentences
        languages = {tree.intent: enumerate_language(tree, include_dropout_variants=True)
                     for tree in (deserialize(path.read_text(encoding="utf-8"))
                                  for path in trees.iterdir())}
        assert len(forked) == min(len(languages), 3) - 1  # one share stays here
        for sentence in sentences:
            assert abstract_entities(sentence)[0] in languages[sentence.intent]
        assert exported[0] == 0
        bundles = {bundle.intent: bundle for bundle in (
            load_bundle(path.read_text(encoding="utf-8"))
            for path in (work / "regex").glob("*.regex.txt"))}
        for sentence in sentences:
            assert match(bundles[sentence.intent], sentence.tokens) is not None

    @FUZZ
    @given(
        spliced(st.lists(_CORPUS_LINES, max_size=12).map(lambda ls: "\n".join(ls).encode())),
        st.sampled_from(["conll", "records"]),
    )
    def test_corpus_stats_on_any_bytes(self, tmp_path, data, fmt):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        corpus = work / "corpus"
        corpus.write_bytes(data)
        code, out, err = run_main(["stats", "--corpus", str(corpus), "--format", fmt])
        assert code in (0, 1)
        assert "Traceback" not in out + err
        if code == 1:
            assert err.startswith("error:")
