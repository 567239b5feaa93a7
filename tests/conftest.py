import os
import random
from pathlib import Path

import pytest

from melonclass.melonic import MelonicConstruction, Stage


@pytest.fixture(autouse=True)
def no_env_budget(monkeypatch):
    """Every test starts without the caller's MELON_BUDGET."""
    monkeypatch.delenv("MELON_BUDGET", raising=False)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260819)


def construction(*stages) -> MelonicConstruction:
    """Build a construction from (banana tuple, parent stage, parent banana)
    triples."""
    return MelonicConstruction(tuple(Stage(tuple(b), p, k)
                                     for b, p, k in stages))


def src_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports melonclass from
    this checkout's src/, installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src + (os.pathsep + path if path else "")}
