"""Suite-wide guard: a test run must leave every tracked file as it
found it (tests write their artifacts to ``tmp_path``, never to the
committed reports and trajectory)."""

import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _tracked_status() -> str | None:
    """``git status`` of the tracked files, or None outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=REPO, capture_output=True, text=True, check=False,
        )
    except FileNotFoundError:
        return None
    return proc.stdout if proc.returncode == 0 else None


@pytest.fixture(scope="session", autouse=True)
def tracked_files_unchanged():
    before = _tracked_status()
    yield
    if before is None:
        return
    after = _tracked_status()
    assert after == before, (
        "the test run modified tracked files:\n"
        f"before:\n{before}\nafter:\n{after}"
    )
