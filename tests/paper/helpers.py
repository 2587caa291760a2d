"""The committed tables the paper tests compare against."""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def assert_matches_committed(name: str, content: str) -> None:
    """``content`` must equal ``benchmarks/results/<name>.txt`` byte for
    byte; the file is read, never rewritten."""
    committed = (RESULTS_DIR / f"{name}.txt").read_text()
    assert content + "\n" == committed, f"{name}.txt no longer regenerates"
