"""The committed compiled-engine coverage report matches the compiler."""

from pathlib import Path

from repro.core import engine_coverage

DOC = Path(__file__).resolve().parents[2] / "docs" / "engine-coverage.md"


def test_engine_coverage_doc_is_fresh():
    text = engine_coverage.render()
    assert DOC.read_text() == text, (
        "docs/engine-coverage.md is stale; regenerate with "
        "`python -m repro.core.engine_coverage`"
    )
    # `&`, static locals and compound assignments through a pointer no
    # longer send a function to the walker.
    assert "unary operator '&'" not in text
    assert "storage class 'static'" not in text
    assert "compound assignment through a pointer" not in text
