"""No source or test file is matched by ``.gitignore``.

An ignore pattern meant for a build leftover at the root (``dist/``)
once also matched the ``src/repro/dist`` package: its tracked files
stayed tracked, but ``git add -A`` would silently leave a new module
there out of a commit.  This gate asks git itself, over every file under
``src/`` and ``tests/`` (tracked or not), leaving out only the
directories that running and testing generate.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests")
GENERATED_DIRS = {"__pycache__", ".hypothesis", ".pytest_cache"}


def _git(*args, stdin=None):
    return subprocess.run(("git", *args), cwd=ROOT, input=stdin,
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def git_work_tree():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("git cannot read this checkout")


def _files_on_disk():
    for top in CHECKED:
        for dirpath, dirnames, filenames in os.walk(ROOT / top):
            dirnames[:] = [name for name in dirnames
                           if name not in GENERATED_DIRS
                           and not name.endswith(".egg-info")]
            for name in filenames:
                if not name.endswith((".pyc", ".pyo")):
                    yield (Path(dirpath) / name).relative_to(ROOT).as_posix()


def test_no_tracked_source_is_ignored(git_work_tree):
    listed = _git("ls-files", "-ci", "--exclude-standard", "--", *CHECKED)
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout.splitlines() == []


def test_no_source_on_disk_is_ignored(git_work_tree):
    paths = sorted(_files_on_disk())
    assert paths
    # Exit status 1 means no path matched a pattern.
    ignored = _git("check-ignore", "--no-index", "-v", "--stdin",
                   stdin="\n".join(paths) + "\n")
    assert ignored.returncode in (0, 1), ignored.stderr
    assert ignored.stdout.splitlines() == []
