"""Line-length check of the package source (no linter is a dependency)."""

from pathlib import Path

MAX_COLUMNS = 100
SRC = Path(__file__).resolve().parents[1] / "src" / "mwfi"


def test_source_lines_fit_in_max_columns():
    long = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_COLUMNS
    ]
    assert long == [], f"lines over {MAX_COLUMNS} columns: {long}"
