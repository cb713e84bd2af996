import json

import pytest

from spectropy import QuantizationConfig, SpectrumMatrix, analyze_matrix, load_matrix, pipeline
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

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


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
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)  # the pipeline imports it from there
    return FakePool


@pytest.mark.parametrize("cpus, workers", [(64, 3), (2, 2), (1, None)])
def test_jobs_capped_at_bands_and_cpus(three_bands, fake_pool, monkeypatch, cpus, workers):
    monkeypatch.setattr(pipeline, "_SLOTS_PER_WORKER", 1)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
    cfg = QuantizationConfig(q=4)
    serial = analyze_matrix(three_bands, cfg, jobs=1)
    assert fake_pool.created == []
    assert analyze_matrix(three_bands, cfg, jobs=10**6) == serial
    # one usable CPU means one worker: serial, no pool
    assert fake_pool.created == ([workers] if workers else [])


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert pipeline._usable_cpus() == 1
    # without affinity masks, the CPU count; an unknown count means one
    monkeypatch.delattr(pipeline.os, "sched_getaffinity")
    assert pipeline._usable_cpus() == 64
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: None)
    assert pipeline._usable_cpus() == 1


def test_small_matrix_runs_in_process(three_bands, fake_pool, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 64)
    analyze_matrix(three_bands, QuantizationConfig(q=4), jobs=10**6)
    assert fake_pool.created == []


@pytest.mark.parametrize("k", [2, 3])
def test_one_worker_per_slots_per_worker(three_bands, fake_pool, monkeypatch, k):
    slots = len(three_bands.bands) * three_bands.n_slots  # 180
    monkeypatch.setattr(pipeline, "_SLOTS_PER_WORKER", slots // k)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 64)
    cfg = QuantizationConfig(q=4)
    analyze_matrix(three_bands, cfg, jobs=10**6)
    assert fake_pool.created == [k]
    # one row fewer leaves 3 slots short of k workers' share; k - 1 = 1 runs in-process
    short = SpectrumMatrix(bands=three_bands.bands, rows=three_bands.rows[:-1])
    analyze_matrix(short, cfg, jobs=10**6)
    assert fake_pool.created == ([k, k - 1] if k > 2 else [k])


@pytest.mark.parametrize("domain", ["linear", "db"])
def test_process_pool_matches_serial(tmp_path, monkeypatch, domain):
    from concurrent.futures import ProcessPoolExecutor

    created = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            created.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline, "_SLOTS_PER_WORKER", 1)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    rows = "\n".join(f"{-100 - k % 7},{-90 - k % 3},{-110 + k % 5},{-95 - k % 11}" for k in range(61))
    matrix = load_matrix(write_text(tmp_path / "t.csv", "614.5,614.1,614.7,614.3\n" + rows + "\n"))
    cfg = QuantizationConfig(q=4)
    serial = analyze_matrix(matrix, cfg, block=2, avg_domain=domain, jobs=1)
    assert created == []
    assert analyze_matrix(matrix, cfg, block=2, avg_domain=domain, jobs=2) == serial
    assert created == [2]
    assert [r.band.center_freq_mhz for r in serial] == [614.1, 614.3, 614.5, 614.7]


def test_jobs_below_one_rejected(three_bands):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        analyze_matrix(three_bands, QuantizationConfig(q=4), jobs=0)


def test_manifest_records_jobs_as_given(trace_csv, tmp_path, fake_pool, monkeypatch):
    monkeypatch.setattr(pipeline, "_SLOTS_PER_WORKER", 1)
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 64)
    assert main(["analyze", str(trace_csv), "--jobs", "1000000", "--output", str(tmp_path / "an.csv")]) == 0
    assert fake_pool.created == [3]
    assert json.loads((tmp_path / "an.json").read_text())["manifest"]["jobs"] == 10**6
