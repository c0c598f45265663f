"""Benchmark of the eastgen command line on three seeded workloads.

    python3 perfbench/run.py --workload gen-plain --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/PREDICTIONS.md for why each was chosen):

  gen-plain  generate --no-embeddings --factor 100 from trees built on the
             4,478-sentence ground-truth corpus (conll output)
  gen-embed  generate from five hand-authored trees with a wide lexicon, a
             25,000 x 300 embedding table, --count 10000, --weighted-lexicon
             and --format records
  induce     build, then export-regex, on a ~38k-sentence random-tree corpus
  all        the three above, round-robin, for one summary

Every command runs as ``python -m eastgen.cli ...`` in a fresh child with
``src`` on PYTHONPATH, one child at a time; its wall time runs from spawn
to reap and its CPU time and peak RSS come from ``os.wait4`` on its pid.
This process imports neither numpy nor the package, so a child's peak RSS
(which Linux carries over from the forking process) is its own. Inputs and
output checks that need the package run in helper children
(``inputs.py``, ``check.py``); ``--trace 1`` adds in-process traced runs
(``traced.py``) that give the per-layer figures.

Times are normalised to a reference host speed. On a shared host the speed
of a core swings by up to 2x within seconds, and how long it stays slow
drifts over minutes, which no run length averages out. A speed probe
(``probe.py``) runs beside the children and times a fixed work item in its
own CPU time every 0.1 s; each child's wall time is divided by the probe's
mean slowdown over that child's lifetime (mean CPU time of the item /
PROBE_REF_S). ``wall_s``, ``sentences_per_s`` and ``setup_s`` are these
normalised figures; raw wall times and slowdowns are printed beside them
and kept in the record.

With ``--trace 0`` a round is the set-up command (``--count 1``, or
three ``--version`` for induce; gen-embed only in its first three rounds)
and then the workload's command(s); with ``--trace 1`` it is one untraced
and one traced run. Rounds repeat until the next one, if it lasted as long
as the last, would end after ``--seconds``, and at least 3 times, 2 when
traced. One untimed run of each workload comes first. Every run is checked;
a failed run is counted and never retried. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The full record (samples, percentiles, environment, input and output
digests, spans) goes to ``perfbench/.results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / ".results"

GEN_PLAIN_FACTOR = 100
GEN_EMBED_COUNT = 10_000
TRACED_ROUNDS = 2  # minimum rounds with --trace 1
CHILD_TIMEOUT_S = 150
TRACEBACK = "Traceback (most recent call last)"
PROBE_EVERY_S = 0.1
PROBE_MIN_SAMPLES = 5  # a shorter child is judged by the samples nearest to it
# CPU time of the probe's work item at the reference speed: its fast-phase
# value on a 2-vCPU x86-64 microVM with Python 3.11.7.
PROBE_REF_S = 0.005

END_TO_END_UNITS = {"wall_s": "s", "sentences_per_s": "1/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}
PER_LAYER_UNITS = {
    "corpus.parse_conll.s": "s",
    "corpus.parse_conll.us_per_sentence": "us",
    "corpus.build_dataset.s": "s",
    "corpus.build_dataset.templates": "count",
    "builder.build.s": "s",
    "builder.build.templates_per_s": "1/s",
    "regex_export.export_regex.s": "s",
    "regex_export.pattern_bytes": "B",
    "east.deserialize.s": "s",
    "east.deserialize.nodes": "count",
    "embeddings.load_embeddings.s": "s",
    "embeddings.load_embeddings.rows_per_s": "1/s",
    "embeddings.load_embeddings.rss_mb": "MB",
    "embeddings.k_nearest.s": "s",
    "embeddings.k_nearest.queries": "count",
    "embeddings.k_nearest.ms_per_query": "ms",
    "generator.generate_batch.s": "s",
    "generator.generate_batch.us_per_sentence": "us",
    "generator.generate_batch.rss_mb": "MB",
    "generator.sample_self.s": "s",
    "generator.emit.s": "s",
    "generator.emit.mb_per_s": "MB/s",
    "generator.knn_fills": "count",
    "generator.knn_fill_ratio": "ratio",
    "generator.oov_bypasses": "count",
    "generator.multi_token_bypasses": "count",
    "generator.duplicate_rate": "ratio",
    "cli.self.s": "s",
    "trace.overhead_s": "s",
}
# Per-layer figures that count work rather than time it: they must repeat
# exactly between traced runs of one seed.
EXACT = [name for name, unit in PER_LAYER_UNITS.items()
         if unit in ("count", "B") or name in ("generator.knn_fill_ratio",
                                                "generator.duplicate_rate")]


class BenchmarkError(Exception):
    """The benchmark cannot run here (no sources, failed preparation)."""


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


class SpeedProbe:
    """Samples the host's speed while children run: ``probe.py`` runs beside
    them and reports the CPU time of its fixed work item every
    PROBE_EVERY_S; a thread of this process collects the samples."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, CPU s)
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None

    def _read(self) -> None:
        for line in self._proc.stdout:
            at, cpu = line.split()
            self.samples.append((float(at), float(cpu)))

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), str(PROBE_EVERY_S)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, name="speed-probe", daemon=True)
        self._reader.start()

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.terminate()
            self._proc.wait()
            self._reader.join()
            self._proc.stdout.close()

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe CPU time over [start, end] relative to PROBE_REF_S."""
        if self._proc.poll() is not None:
            raise BenchmarkError(f"the speed probe exited with code {self._proc.returncode}")
        samples = list(self.samples)
        inside = [cpu for at, cpu in samples if start <= at <= end]
        if len(inside) < PROBE_MIN_SAMPLES:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
            inside = [cpu for _, cpu in nearest[:PROBE_MIN_SAMPLES]]
        if not inside:
            raise BenchmarkError("the speed probe took no samples")
        return statistics.fmean(inside) / PROBE_REF_S


class Child:
    """One finished child process: exit code, wall and CPU time, peak RSS."""

    def __init__(self, argv: list[str], logs: Path):
        out_path, err_path = logs / "stdout", logs / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.end = time.perf_counter()
            self.start, self.wall = start, self.end - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")

    def problems(self) -> list[str]:
        if self.code != 0 or TRACEBACK in self.stderr:
            tail = self.stderr.strip().splitlines()[-1:] or [""]
            return [f"exit {self.code}: {tail[0][:200]}"]
        return []


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "eastgen.cli", *args]


def helper(script: str, *args) -> dict:
    """Run a helper script of the benchmark and parse its JSON answer."""
    child = Child([sys.executable, str(BENCH / script), *map(str, args)], WORK)
    if child.problems():
        raise BenchmarkError(f"{script} {' '.join(map(str, args))}: {child.problems()[0]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def manifest_problems(manifest: Path) -> list[str]:
    """The manifest's ``sha256:`` entries must match the files beside it."""
    if not manifest.exists():
        return [f"missing {manifest.name}"]
    entries = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
    return [f"{manifest.name}: checksum of {name} does not match"
            for name, digest in entries.items()
            if digest != f"sha256:{sha256_file(manifest.parent / name)}"]


def tree_digest(files: list[Path], base: Path) -> str:
    lines = "".join(f"{p.relative_to(base)}\0{sha256_file(p)}\n" for p in sorted(files))
    return hashlib.sha256(lines.encode()).hexdigest()


class Workload:
    """A workload's commands, checks and samples for one seed."""

    name = ""
    setup_per_round = 1
    setup_rounds: int | None = None  # rounds that start with set-up runs; None: all
    min_rounds = 3  # with --trace 0

    def __init__(self, seed: int, probe: SpeedProbe):
        self.seed, self.probe = seed, probe
        self.work = WORK / f"{os.getpid()}-{self.name}"
        self.work.mkdir(parents=True)
        self.logs = self.work / "logs"
        self.logs.mkdir()
        prepared = helper("inputs.py", self.name, seed)
        self.inputs = Path(prepared.pop("dir"))
        self.record = prepared
        self.reference: str | None = None  # digest of the first checked output
        self.facts: dict = {}
        self.runs: list[dict] = []
        self.setups: list[dict] = []
        self.traced: list[dict] = []
        self.warmups: list[dict] = []  # checked, not timed
        self.problems: list[str] = []

    # --- per-workload pieces ---------------------------------------------------

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def setup_command(self) -> list[str]:
        raise NotImplementedError

    def sentences(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def manifests(self) -> list[Path]:
        raise NotImplementedError

    def cheap_problems(self) -> list[str]:
        """Checks cheap enough for every run."""
        return []

    def full_check(self) -> dict:
        """Re-parse the outputs with the program's parsers (first run)."""
        raise NotImplementedError

    def clear_setup(self) -> None:
        pass

    def setup_problems(self, child: Child) -> list[str]:
        return child.problems()

    def stats(self) -> dict:
        return {}

    # --- running ------------------------------------------------------------------

    def _output_problems(self) -> list[str]:
        try:
            problems = self.cheap_problems()
            for manifest in self.manifests():
                problems += manifest_problems(manifest)
            if problems:
                return problems
            digest = tree_digest(self.outputs(), self.work)
            if self.reference is None:
                answer = self.full_check()
                problems = answer["problems"] or self.fact_problems(answer["facts"])
                if not problems:
                    self.reference, self.facts = digest, answer["facts"]
            elif digest != self.reference:
                problems.append(f"output digest {digest[:16]} differs from the first "
                                f"run's {self.reference[:16]}")
            return problems
        except (OSError, ValueError, KeyError, BenchmarkError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]

    def fact_problems(self, facts: dict) -> list[str]:
        return []

    def run(self, into: list, traced: bool = False) -> dict:
        """One checked run of the workload's commands. A traced run runs each
        command in its own ``traced.py`` child and derives per-layer figures."""
        self.clear()
        children, spans = [], []
        problems: list[str] = []
        spans_path = self.work / "spans.json"
        for argv in self.commands():
            if traced:
                argv = [sys.executable, str(BENCH / "traced.py"), str(spans_path),
                        json.dumps(argv)]
            else:
                argv = cli(*argv)
            child = Child(argv, self.logs)
            children.append(child)
            problems = child.problems()
            if problems:
                break
            if traced:
                offset = len(spans)
                for span in json.loads(spans_path.read_text()):
                    if span["parent"] is not None:
                        span["parent"] += offset
                    spans.append(span)
        problems = problems or self._output_problems()
        sample = self._sample(children, problems, into)
        if traced and not problems:
            sample["layers"] = layer_metrics(spans, self.stats(), self.facts, self.name)
        return sample

    def run_setup(self) -> dict:
        self.clear_setup()
        child = Child(cli(*self.setup_command()), self.logs)
        try:
            problems = self.setup_problems(child)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable set-up output: {type(exc).__name__}: {exc}"]
        return self._sample([child], problems, self.setups)

    def all_runs(self) -> list[dict]:
        return self.runs + self.setups + self.traced + self.warmups

    def _sample(self, children: list[Child], problems: list[str], into: list) -> dict:
        slowdowns = [self.probe.slowdown(c.start, c.end) for c in children]
        sample = {
            "wall_s": sum(c.wall / x for c, x in zip(children, slowdowns)),
            "raw_wall_s": sum(c.wall for c in children),
            "cpu_s": sum(c.cpu for c in children),
            "peak_rss_mb": max(c.rss_mb for c in children),
            "commands": [{"wall_s": c.wall / x, "raw_wall_s": c.wall, "slowdown": x,
                          "cpu_s": c.cpu, "rss_mb": c.rss_mb}
                         for c, x in zip(children, slowdowns)],
            "problems": problems,
        }
        into.append(sample)
        self.problems += problems
        return sample

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Generate(Workload):
    fmt = "conll"

    def __init__(self, seed: int, probe: SpeedProbe):
        super().__init__(seed, probe)
        self.out = self.work / f"out.{self.fmt}"
        self.setup_out = self.work / f"setup.{self.fmt}"

    def generate(self, out: Path, *amount: str) -> list[str]:
        return ["generate", "--trees", str(self.trees), *self.source(), *amount,
                "--seed", str(self.seed), "--format", self.fmt, "--out", str(out)]

    def commands(self) -> list[list[str]]:
        return [self.generate(self.out, *self.amount())]

    def setup_command(self) -> list[str]:
        return self.generate(self.setup_out, "--count", "1")

    def sentences(self) -> int:
        return sum(self.per_intent().values())

    def _sidecars(self, out: Path) -> list[Path]:
        return [out, out.with_name(out.name + ".stats.json")]

    @staticmethod
    def _manifest(out: Path) -> Path:
        return out.with_name(out.name + ".manifest.json")

    def clear(self) -> None:
        for path in self._sidecars(self.out) + [self._manifest(self.out)]:
            path.unlink(missing_ok=True)

    def clear_setup(self) -> None:
        for path in self._sidecars(self.setup_out) + [self._manifest(self.setup_out)]:
            path.unlink(missing_ok=True)

    def outputs(self) -> list[Path]:
        return self._sidecars(self.out)

    def manifests(self) -> list[Path]:
        return [self._manifest(self.out)]

    def stats(self) -> dict:
        return json.loads(self._sidecars(self.out)[1].read_text(encoding="utf-8"))

    def cheap_problems(self) -> list[str]:
        stats = self.stats()
        problems = []
        if stats["sentences_per_intent"] != self.per_intent():
            problems.append(f"stats report {stats['sentences_per_intent']}, "
                            f"expected {self.per_intent()}")
        if stats["total"] != self.sentences():
            problems.append(f"stats total {stats['total']} != {self.sentences()}")
        return problems

    def setup_problems(self, child: Child) -> list[str]:
        problems = child.problems()
        if not problems:
            problems = manifest_problems(self._manifest(self.setup_out))
        if not problems:
            total = json.loads(self._sidecars(self.setup_out)[1].read_text())["total"]
            if total != len(self.per_intent()):
                problems.append(f"set-up run made {total} sentences, "
                                f"expected {len(self.per_intent())}")
        return problems

    def fact_problems(self, facts: dict) -> list[str]:
        problems = []
        if facts["sentences"] != self.sentences():
            problems.append(f"output re-parses to {facts['sentences']} sentences, "
                            f"expected {self.sentences()}")
        if facts["per_intent"] != self.per_intent():
            problems.append(f"output has {facts['per_intent']} per intent")
        return problems


class GenPlain(Generate):
    """generate --no-embeddings --factor 100 on trees built from the corpus."""

    name = "gen-plain"

    def __init__(self, seed: int, probe: SpeedProbe):
        super().__init__(seed, probe)
        self.corpus = self.inputs / "train.conll"
        self.trees = self.work / "trees"
        child = Child(cli("build", str(self.corpus), "--out", str(self.trees)), self.logs)
        problems = child.problems() or manifest_problems(self.trees / "manifest.json")
        if problems:
            raise BenchmarkError(f"building the gen-plain trees failed: {problems[0]}")

    def source(self) -> list[str]:
        return ["--corpus", str(self.corpus), "--no-embeddings"]

    def amount(self) -> list[str]:
        return ["--factor", str(GEN_PLAIN_FACTOR)]

    def per_intent(self) -> dict:
        return {intent: GEN_PLAIN_FACTOR * n for intent, n in self.record["intent_sizes"].items()}

    def full_check(self) -> dict:
        return helper("check.py", "corpus", self.out, self.fmt, "-", 0)


class GenEmbed(Generate):
    """Cold start: hand-authored trees, wide lexicon, 25k x 300 table."""

    name = "gen-embed"
    fmt = "records"
    setup_rounds = 3  # a set-up run loads the whole table: spend the time on runs

    def __init__(self, seed: int, probe: SpeedProbe):
        super().__init__(seed, probe)
        self.trees = self.inputs / "trees"
        self.lexicon = self.inputs / "lexicon.json"

    def source(self) -> list[str]:
        return ["--lexicon", str(self.lexicon),
                "--embeddings", str(self.inputs / "vectors.txt"), "--weighted-lexicon"]

    def amount(self) -> list[str]:
        return ["--count", str(GEN_EMBED_COUNT)]

    def per_intent(self) -> dict:
        return {intent: GEN_EMBED_COUNT for intent in self.record["intents"]}

    def cheap_problems(self) -> list[str]:
        problems = super().cheap_problems()
        stats = self.stats()
        if stats["oov_substitution_bypasses"] != 0:
            problems.append(f"{stats['oov_substitution_bypasses']} OOV bypasses: the "
                            "table vocabulary must hold every single-token lexicon form")
        if stats["knn_fills"] == 0:
            problems.append("no kNN fills")
        return problems

    def full_check(self) -> dict:
        return helper("check.py", "corpus", self.out, self.fmt, self.lexicon,
                      self.record["table_rows"])


class Induce(Workload):
    """build, then export-regex, on the random-tree corpus."""

    name = "induce"
    setup_per_round = 3

    def __init__(self, seed: int, probe: SpeedProbe):
        super().__init__(seed, probe)
        self.corpus = self.inputs / "train.conll"
        self.trees = self.work / "trees"
        self.bundles = self.work / "bundles"

    def commands(self) -> list[list[str]]:
        return [["build", str(self.corpus), "--out", str(self.trees)],
                ["export-regex", "--trees", str(self.trees), "--lexicon",
                 str(self.trees / "lexicon.json"), "--out", str(self.bundles)]]

    def setup_command(self) -> list[str]:
        return ["--version"]

    def setup_problems(self, child: Child) -> list[str]:
        return child.problems() or ([] if child.stdout.strip() else ["no version printed"])

    def sentences(self) -> int:
        return self.record["sentences"]

    def clear(self) -> None:
        shutil.rmtree(self.trees, ignore_errors=True)
        shutil.rmtree(self.bundles, ignore_errors=True)

    def outputs(self) -> list[Path]:
        return [p for d in (self.trees, self.bundles) for p in d.iterdir()
                if p.name != "manifest.json"]

    def manifests(self) -> list[Path]:
        return [self.trees / "manifest.json", self.bundles / "manifest.json"]

    def cheap_problems(self) -> list[str]:
        trees = len(list(self.trees.glob("*.east.json")))
        bundles = len(list(self.bundles.glob("*.regex.txt")))
        want = self.record["intents"]
        if trees != want or bundles != want:
            return [f"{trees} trees and {bundles} bundles for {want} intents"]
        return []

    def full_check(self) -> dict:
        return helper("check.py", "induce", self.trees, self.bundles, self.corpus, self.seed)

    def fact_problems(self, facts: dict) -> list[str]:
        if facts["sentences"] != self.sentences():
            return [f"corpus re-parses to {facts['sentences']} sentences"]
        return []


WORKLOADS = {w.name: w for w in (GenPlain, GenEmbed, Induce)}


# --- per-layer figures from spans ---------------------------------------------------


def layer_metrics(spans: list[dict], stats: dict, facts: dict, workload: str) -> dict:
    """Per-layer figures of one traced run; absent layers read 0."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        if span["parent"] is not None:
            covered[span["parent"]] += span["dur"]

    def total(name):
        return sum(s["dur"] for s in spans if s["name"] == name)

    def count(name):
        return sum(s["count"] for s in spans if s["name"] == name)

    def own(name):
        return sum(s["dur"] - covered[i] for i, s in enumerate(spans) if s["name"] == name)

    def rss(name):
        return max((s["rss_mb"] for s in spans if s["name"] == name), default=0.0)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    knn = stats.get("knn_fills", 0)
    multi = stats.get("multi_token_bypasses", 0)
    oov = stats.get("oov_substitution_bypasses", 0)
    eligible = facts.get("entity_fills", 0) - multi - oov if workload == "gen-embed" else 0
    return {
        "corpus.parse_conll.s": total("corpus.parse_conll"),
        "corpus.parse_conll.us_per_sentence":
            ratio(total("corpus.parse_conll"), count("corpus.parse_conll"), 1e6),
        "corpus.build_dataset.s": total("corpus.build_dataset"),
        "corpus.build_dataset.templates": count("corpus.build_dataset"),
        "builder.build.s": total("builder.build"),
        "builder.build.templates_per_s":
            ratio(count("builder.build"), total("builder.build")),
        "regex_export.export_regex.s": total("regex_export.export_regex"),
        "regex_export.pattern_bytes": count("regex_export.export_regex"),
        "east.deserialize.s": total("east.deserialize"),
        "east.deserialize.nodes": count("east.deserialize"),
        "embeddings.load_embeddings.s": total("embeddings.load_embeddings"),
        "embeddings.load_embeddings.rows_per_s":
            ratio(count("embeddings.load_embeddings"), total("embeddings.load_embeddings")),
        "embeddings.load_embeddings.rss_mb": rss("embeddings.load_embeddings"),
        "embeddings.k_nearest.s": total("embeddings.k_nearest"),
        "embeddings.k_nearest.queries": count("embeddings.k_nearest"),
        "embeddings.k_nearest.ms_per_query":
            ratio(total("embeddings.k_nearest"), count("embeddings.k_nearest"), 1e3),
        "generator.generate_batch.s": total("generator.generate_batch"),
        "generator.generate_batch.us_per_sentence":
            ratio(total("generator.generate_batch"), count("generator.generate_batch"), 1e6),
        "generator.generate_batch.rss_mb": rss("generator.generate_batch"),
        "generator.sample_self.s": own("generator.generate_batch"),
        "generator.emit.s": total("generator.emit"),
        "generator.emit.mb_per_s":
            ratio(count("generator.emit") / 1e6, total("generator.emit")),
        "generator.knn_fills": knn,
        "generator.knn_fill_ratio": ratio(knn, eligible),
        "generator.oov_bypasses": oov,
        "generator.multi_token_bypasses": multi,
        "generator.duplicate_rate": stats.get("duplicate_rate", 0.0),
        "cli.self.s": own("cli.main"),
    }


# --- summaries ----------------------------------------------------------------------


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = ordered[min(n - 1, int(-(-p * n // 100)) - 1)]
            break
    return out


def end_to_end(w: Workload) -> tuple[dict, dict]:
    walls = [r["wall_s"] for r in w.runs if not r["problems"]]
    setups = [r["wall_s"] for r in w.setups if not r["problems"]]
    rss = [r["peak_rss_mb"] for r in w.runs if not r["problems"]]
    cpu = [r["cpu_s"] for r in w.runs if not r["problems"]]
    raw = [r["raw_wall_s"] for r in w.runs if not r["problems"]]
    raw_setups = [r["raw_wall_s"] for r in w.setups if not r["problems"]]
    slowdown = [c["slowdown"] for r in w.runs + w.setups if not r["problems"]
                for c in r["commands"]]
    metrics = {}
    if walls and setups:
        metrics = {
            "wall_s": statistics.median(walls),
            "sentences_per_s": statistics.median(w.sentences() / x for x in walls),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": statistics.median(setups),
        }
    detail = {"wall_s": tail(walls), "setup_s": tail(setups), "peak_rss_mb": tail(rss),
              "cpu_s": tail(cpu), "raw_wall_s": tail(raw), "raw_setup_s": tail(raw_setups),
              "slowdown": tail(slowdown)}
    return metrics, detail


def per_layer(w: Workload) -> tuple[dict, dict]:
    traced = [r for r in w.traced if not r["problems"]]
    untraced = [r["wall_s"] for r in w.runs if not r["problems"]]
    if not traced or not untraced:
        return {}, {}
    first = traced[0]["layers"]
    for other in traced[1:]:
        moved = [k for k in EXACT if other["layers"][k] != first[k]]
        if moved:
            w.problems.append(f"counts differ between traced runs: {moved}")
    metrics = {k: first[k] if k in EXACT else statistics.median(r["layers"][k] for r in traced)
               for k in first}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(untraced))
    return metrics, {"traced_wall_s": tail([r["wall_s"] for r in traced]),
                     "untraced_wall_s": tail(untraced)}


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(w: Workload, metrics: dict, units: dict, detail: dict, failed: int,
           attempted: int) -> None:
    inputs = " ".join(f"{k}={v[:12]}" for k, v in w.record["sha256"].items())
    print(f"== {w.name}  seed {w.seed}  inputs sha256 {inputs}")
    print("  inputs: " + ", ".join(f"{k} {v}" for k, v in w.record.items() if k != "sha256"))
    for name, value in metrics.items():
        line = f"  {name:42s} {_fmt(value):>14s} {units[name]}"
        if name in detail:
            extra = ", ".join(f"{k} {_fmt(v)}" for k, v in detail[name].items()
                              if k != "median")
            line += f"   ({extra})"
        print(line)
    for name, figures in detail.items():
        if name not in metrics and figures.get("median") is not None:
            extra = ", ".join(f"{k} {_fmt(v)}" for k, v in figures.items())
            print(f"  {'  ' + name + ' (diagnostic)':42s}   ({extra})")
    print(f"  {'failure_rate':42s} {_fmt(failed / attempted):>14s} "
          f"ratio   ({failed}/{attempted} runs)")
    if w.reference:
        print(f"  {'output digest':42s} sha256:{w.reference}")
    for problem in w.problems[:5]:
        print(f"  FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eastgen" / "cli.py").is_file():
        print(f"error: no eastgen sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    workloads: list[Workload] = []
    probe = SpeedProbe()
    probe.start()
    try:
        env = helper("check.py", "env")["facts"]
        warm = Child(cli("--version"), WORK)  # compiles bytecode outside the timing
        if warm.problems():
            raise BenchmarkError(f"eastgen --version: {warm.problems()[0]}")
        env["version"] = warm.stdout.strip()
        for name in names:
            workloads.append(WORKLOADS[name](args.seed, probe))
        for w in workloads:  # fills caches and finishes lazy set-up before timing
            w.run(w.warmups)

        start = time.perf_counter()
        rounds = 0
        while True:
            round_start = time.perf_counter()
            for w in workloads:
                if args.trace:
                    w.run(w.runs)
                    w.run(w.traced, traced=True)
                else:
                    if w.setup_rounds is None or rounds < w.setup_rounds:
                        for _ in range(w.setup_per_round):
                            w.run_setup()
                    w.run(w.runs)
            rounds += 1
            now = time.perf_counter()
            elapsed = now - start
            least = TRACED_ROUNDS if args.trace else max(w.min_rounds for w in workloads)
            # the next round is taken to last as long as this one
            if rounds >= least and elapsed + (now - round_start) > args.seconds:
                break
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        probe.stop()
        for w in workloads:
            w.close()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result_metrics: dict = {}
    record = {"args": vars(args), "environment": env, "rounds": rounds,
              "measured_s": elapsed, "workloads": {},
              "speed_probe": {"every_s": PROBE_EVERY_S, "ref_s": PROBE_REF_S,
                              "samples": len(probe.samples)}}
    attempted = failed = 0
    per_workload = []
    print(f"eastgen {env['version']}  python {env['python']}  numpy {env['numpy']}  "
          f"nproc {env['nproc']}  blas threads {env['blas_threads']}  rounds {rounds}")
    for w in workloads:
        metrics, detail = per_layer(w) if args.trace else end_to_end(w)
        per_workload.append(metrics)
        runs = w.all_runs()
        w_attempted, w_failed = len(runs), sum(bool(r["problems"]) for r in runs)
        attempted += w_attempted
        failed += w_failed
        report(w, metrics, units, detail, w_failed, w_attempted)
        prefix = f"{w.name}." if len(workloads) > 1 else ""
        result_metrics.update({prefix + k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()})
        record["workloads"][w.name] = {
            "inputs": w.record, "output_digest": w.reference, "facts": w.facts,
            "metrics": metrics, "detail": detail, "problems": w.problems,
            "failure_rate": w_failed / w_attempted,
            "runs": w.runs, "setups": w.setups, "traced": w.traced, "warmups": w.warmups,
        }
    complete = all(len(w_metrics) == len(units) for w_metrics in per_workload)
    correct = failed == 0 and complete and not any(w.problems for w in workloads)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(f"full record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
