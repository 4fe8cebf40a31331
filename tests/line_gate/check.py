"""The line gate: which executable lines of ``src/nodalbn`` Tier-1 never runs.

Runs the Tier-1 suite once with a copy of ``sitecustomize.py`` first on
``PYTHONPATH``, so the pytest process and every interpreter a test starts
record the package lines they run.  The executable lines are those of the
compiled modules' code objects (``co_lines()``).  Every executable line
that no process ran must be listed in ``allowlist.json``, keyed by its
file and its stripped source text, with the reason it cannot run.  The
gate exits 1 naming each unrun line that is not listed and each listed
line that ran (or is gone), and also when the suite itself fails.

Needs Python 3.12 or later (``sys.monitoring``).  From the repository root:

    python tests/line_gate/check.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """Every line that some instruction of the compiled module maps to."""
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def recorded_lines(work: str) -> tuple[int, set[tuple[Path, int]]]:
    """The number of processes that recorded, and the (file, line) pairs they ran."""
    files = list(Path(work).glob("lines-*.txt"))
    rows = {tuple(row.rsplit("\t", 1)) for f in files for row in f.read_text().splitlines()}
    paths = {name: Path(name).resolve() for name, _ in rows}
    return len(files), {(paths[name], int(number)) for name, number in rows}


def main() -> int:
    if sys.version_info < (3, 12):
        sys.exit("the line gate needs sys.monitoring: Python 3.12 or later")
    with tempfile.TemporaryDirectory() as work:
        shutil.copy(HERE / "sitecustomize.py", work)
        path = os.pathsep.join(p for p in (work, str(SRC), os.environ.get("PYTHONPATH")) if p)
        suite = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        )
        processes, ran = recorded_lines(work)
    allowed = {(e["file"], e["source"]): e["reason"]
               for e in json.loads((HERE / "allowlist.json").read_text())}
    used, unlisted, total = set(), [], 0
    for path in sorted((SRC / "nodalbn").glob("*.py")):
        file, text = path.relative_to(ROOT).as_posix(), path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for number in sorted(lines):
            if (path, number) in ran:
                continue
            key = (file, text[number - 1].strip())
            if key in allowed:
                used.add(key)
            else:
                unlisted.append(f"{file}:{number}: {key[1]}")
    print(f"line gate: {processes} processes recorded; {total} executable lines,"
          f" {len(unlisted)} unrun and unlisted, {len(used)} of {len(allowed)} listed texts unrun")
    for line in unlisted:
        print(f"never ran and not listed: {line}")
    for file, source in sorted(allowed.keys() - used):
        print(f"listed but ran or gone: {file}: {source} ({allowed[file, source]})")
    if suite.returncode != 0:
        print(f"the suite exited {suite.returncode}")
    return 1 if unlisted or allowed.keys() - used or suite.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
