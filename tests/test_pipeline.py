import json

import pytest

from spectropy import QuantizationConfig, analyze_matrix, load_matrix, pipeline
from spectropy.cli import main
from tests.conftest import write_text


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    created: list[int] = []

    def __init__(self, max_workers):
        FakePool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.fixture
def trace_csv(tmp_path):
    rows = "\n".join(f"{-100 - k % 7},{-90 - k % 3},{-110 + k % 5}" for k in range(60))
    return write_text(tmp_path / "t.csv", "614.1,614.3,614.5\n" + rows + "\n")


@pytest.fixture
def three_bands(trace_csv):
    return load_matrix(trace_csv)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.created = []
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", FakePool)
    return FakePool


@pytest.mark.parametrize("cpus, workers", [(64, 3), (2, 2), (None, None)])
def test_jobs_capped_at_bands_and_cpus(three_bands, fake_pool, monkeypatch, cpus, workers):
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
    cfg = QuantizationConfig(q=4)
    serial = analyze_matrix(three_bands, cfg, jobs=1)
    assert fake_pool.created == []
    assert analyze_matrix(three_bands, cfg, jobs=10**6) == serial
    # an unknown CPU count means one worker: serial, no pool
    assert fake_pool.created == ([workers] if workers else [])


def test_jobs_below_one_rejected(three_bands):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        analyze_matrix(three_bands, QuantizationConfig(q=4), jobs=0)


def test_manifest_records_jobs_as_given(trace_csv, tmp_path, fake_pool, monkeypatch):
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
    assert main(["analyze", str(trace_csv), "--jobs", "1000000", "--output", str(tmp_path / "an.csv")]) == 0
    assert fake_pool.created == [3]
    assert json.loads((tmp_path / "an.json").read_text())["manifest"]["jobs"] == 10**6
