from __future__ import annotations

from pathlib import Path

import pytest

from mpmcs.encoding import build_wcnf, event_weights
from mpmcs.fault_tree import parse_fault_tree

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def fire_path() -> Path:
    return DATA_DIR / "fire_protection.json"


@pytest.fixture(scope="session")
def fire_tree(fire_path):
    return parse_fault_tree(fire_path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def fire_instance(fire_tree):
    return build_wcnf(fire_tree)


@pytest.fixture(scope="session")
def fire_weights(fire_tree):
    return event_weights(fire_tree)
