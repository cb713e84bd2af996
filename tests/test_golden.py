"""Byte identity of the CLI's CSVs against the golden corpus of ``tests/golden``.

Every section of an expected file is a command and the CSV it wrote when the corpus
was recorded; the test runs the command again on the committed inputs and compares
the bytes.  ``tests/golden/regenerate.py`` writes the corpus.
"""

import shutil

import pytest

from tests.golden.regenerate import EXPECTED, INPUTS, commands, parse_expected, run


def first_difference(expected: list[str], got: list[str]) -> tuple[int, str]:
    """(0-based CSV line, description) of the first line where the two CSVs differ."""
    for i, (want, have) in enumerate(zip(expected, got)):
        if want != have:
            header = expected[0].split(",")
            for col, (a, b) in enumerate(zip(want.split(","), have.split(","))):
                if a != b:
                    name = header[col] if i and col < len(header) else f"cell {col + 1}"
                    return i, f"{name}: expected {a!r}, got {b!r}"
            return i, f"expected {want!r}, got {have!r}"
    i = min(len(expected), len(got))
    return i, f"expected {len(expected)} lines, got {len(got)}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    for path in INPUTS.iterdir():
        shutil.copy(path, work)
    return work


def test_corpus_covers_the_grid():
    assert sorted(p.name for p in EXPECTED.glob("*.txt")) == sorted(commands())


@pytest.mark.parametrize("name", sorted(commands()))
def test_csv_bytes_match_the_corpus(name, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    sections = parse_expected((EXPECTED / name).read_text(encoding="utf-8"))
    assert [line for _, line, _ in sections] == commands()[name], f"{name}: commands differ from the grid"
    for lineno, line, csv_lines in sections:
        got = run(line)
        if got != "".join(f"{ln}\n" for ln in csv_lines).encode("utf-8"):
            i, what = first_difference(csv_lines, got.decode("utf-8").splitlines())
            pytest.fail(f"tests/golden/expected/{name} line {lineno + 1 + i} ({line}): {what}")
