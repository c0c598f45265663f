import os

import numpy as np
import pytest

from eastgen import build_dataset, generator, parse_conll
from eastgen.embeddings import cache_dir

AIRLINE_CONLL = """\
# intent: airline
which\tO
airlines\tO
have\tO
daily\tB-flight_days
flights\tO
from\tO
denver\tB-city_name
to\tO
san\tB-city_name
francisco\tI-city_name
on\tO
April\tB-month_name
1st\tB-day_number

# intent: airline
are\tO
there\tO
any\tO
monthly\tB-flight_days
airplanes\tO
from\tO
boston\tB-city_name
to\tO
dallas\tB-city_name
on\tO
4th\tB-day_number
May\tB-month_name

# intent: airline
show\tO
me\tO
the\tO
airlines\tO
that\tO
fly\tO
from\tO
Beijing\tB-city_name
to\tO
Shanghai\tB-city_name
please\tO
"""

WEATHER_CONLL = """\
# intent: Ask weather
How's\tO
the\tO
weather\tO
in\tO
Beijing\tB-LOC
today\tB-DATE
"""


@pytest.fixture(autouse=True)
def cache_home(tmp_path_factory, monkeypatch):
    """Each test caches embedding tables in a fresh directory of its own, never
    under the home directory, so every table a test loads is a miss first.
    Child processes inherit the variable."""
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home


@pytest.fixture
def force_split(monkeypatch):
    """Call it to make `generate_batch` split any table-free batch over three
    CPUs, whatever the host has; it returns the list that collects the pid
    of every child the batch forks."""

    def split() -> list[int]:
        forked: list[int] = []
        fork = os.fork

        def counted_fork() -> int:
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(generator, "PARALLEL_MIN_DRAWS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "fork", counted_fork)
        return forked

    return split


def cache_entries() -> list[str]:
    """The names of the embedding cache's entries, in name order."""
    root = cache_dir()
    return sorted(p.name for p in root.iterdir()) if root.is_dir() else []


@pytest.fixture
def airline_corpus():
    return AIRLINE_CONLL


@pytest.fixture
def airline_dataset():
    return build_dataset(parse_conll(AIRLINE_CONLL))


@pytest.fixture
def airline_templates(airline_dataset):
    return airline_dataset.by_intent["airline"]


@pytest.fixture(scope="session")
def vector_fixture():
    """1000 seeded random embeddings, as file text and as a plain dict."""
    rng = np.random.RandomState(20240311)
    tokens = [f"tok{i:04d}" for i in range(1000)]
    matrix = rng.normal(size=(1000, 16))
    lines = [
        token + " " + " ".join(f"{v:.6f}" for v in row)
        for token, row in zip(tokens, matrix)
    ]
    text = "\n".join(lines) + "\n"
    vectors = {
        token: [float(f"{v:.6f}") for v in row]
        for token, row in zip(tokens, matrix)
    }
    return text, vectors
