from __future__ import annotations

from pathlib import Path

import pytest

from gridcalc import CalcConfig, Engine, engine, load_workspace
from gridcalc.bench import asset_path

# Every character str.splitlines ends a line at; the loader splits on them.
LINE_ENDINGS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

ALL_WORKBOOK_ASSETS = [
    "isbn_basic.gwb",
    "isbn_byref.gwb",
    "lib.gwb",
    "book2.gwb",
    "bench_body.gwb",
]


def assets(*names) -> list[Path]:
    return [asset_path(n) for n in names]


def load_assets(*names, config: CalcConfig | None = None):
    return load_workspace(assets(*names), config)


def evaluated(ws, f):
    """Formula *f*'s value in its own cell: its bound function called on it
    (``engine.bind`` is read at the call, so a patch of it is seen)."""
    return engine.bind(ws, f)(f)


def engine_for(*names, config: CalcConfig | None = None) -> Engine:
    return Engine(load_assets(*names, config=config))


@pytest.fixture
def basic_engine() -> Engine:
    return engine_for("isbn_basic.gwb")


@pytest.fixture
def demo_engine() -> Engine:
    return Engine(load_workspace([asset_path("demo.gws")]))
