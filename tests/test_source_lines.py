"""Line-length check of the package source and its tests (no linter is a
dependency)."""

from pathlib import Path

MAX_COLUMNS = 100
ROOT = Path(__file__).resolve().parents[1]
CHECKED = sorted((ROOT / "src" / "mwfi").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def test_source_lines_fit_in_max_columns():
    long = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in CHECKED
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_COLUMNS
    ]
    assert long == [], f"lines over {MAX_COLUMNS} columns: {long}"
