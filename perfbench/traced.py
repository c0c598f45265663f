"""Traced in-process run: time each layer's public function from outside.

    python perfbench/traced.py SPANS_JSON ARGV_JSON

Wraps the public entry point of each module, wherever a module of the
package has bound it, then calls ``eastgen.cli.main`` with ARGV_JSON (a
JSON list of CLI arguments) and writes the recorded spans to SPANS_JSON.
Nothing inside the package is changed on disk.

A span is ``{name, start, end, parent, count, rss_mb}``: ``parent`` is the
index of the span that was open when the call began, ``count`` is the
work the call did (sentences parsed, rows loaded, bytes emitted, ...) and
``rss_mb`` is how much the call raised the process's RSS: the larger of
the rise of its peak (transient memory above any earlier peak) and the
rise of its current RSS (memory the call's result keeps).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time

import eastgen.cli
from eastgen.east import iter_nodes


# Work counts, computed after the call from (args, kwargs, result, mark).


def _length(args, kwargs, result, mark):
    return len(result)


def _templates(dataset) -> int:
    return sum(len(templates) for templates in dataset.by_intent.values())


def _sink(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["sink"]


def _emitted_bytes(args, kwargs, result, mark):
    return _sink(args, kwargs).tell() - mark


def _pattern_bytes(args, kwargs, result, mark):
    return sum(len(pattern.encode()) for pattern in result.patterns)


# span name -> (module, function, work count, mark taken before the call)
LAYERS = {
    "cli.main": ("eastgen.cli", "main", None, None),
    "corpus.parse_conll": ("eastgen.corpus", "parse_conll", _length, None),
    "corpus.build_dataset": ("eastgen.corpus", "build_dataset",
                             lambda a, k, result, m: _templates(result), None),
    "builder.build": ("eastgen.builder", "build",
                      lambda a, k, result, m: _templates(a[0]), None),
    "east.deserialize": ("eastgen.east", "deserialize",
                         lambda a, k, result, m: sum(1 for _ in iter_nodes(result)), None),
    "embeddings.load_embeddings": ("eastgen.embeddings", "load_embeddings", _length, None),
    "embeddings.k_nearest": ("eastgen.embeddings", "k_nearest",
                             lambda a, k, result, m: 1, None),
    "generator.generate_batch": ("eastgen.generator", "generate_batch", _length, None),
    "generator.emit": ("eastgen.generator", "emit", _emitted_bytes,
                       lambda a, k: _sink(a, k).tell()),
    "regex_export.export_regex": ("eastgen.regex_export", "export_regex", _pattern_bytes,
                                  None),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    @staticmethod
    def rss_mb() -> tuple[float, float]:
        """(peak, current) RSS of this process in MB."""
        with open("/proc/self/statm") as handle:
            resident = int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, resident / 2**20

    def rss_rise(self, span) -> float:
        peak, current = self.rss_mb()
        return max(peak - span["rss0"][0], current - span["rss0"][1])

    def wrap(self, name, fn, count, before):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mark = before(args, kwargs) if before else None
            span = {"name": name, "parent": self.stack[-1] if self.stack else None,
                    "count": 0, "rss0": self.rss_mb()}
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                span["rss_mb"] = self.rss_rise(span)
            if count is not None:
                span["count"] = count(args, kwargs, result, mark)
            return result

        return traced

    def install(self) -> None:
        """Rebind every package-level name that refers to a traced function."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "eastgen" or n.startswith("eastgen.")]
        for name, (module, attr, count, before) in LAYERS.items():
            original = getattr(importlib.import_module(module), attr)
            wrapper = self.wrap(name, original, count, before)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    code = eastgen.cli.main(json.loads(argv[1]))
    for span in tracer.spans:
        del span["rss0"]
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
