"""A fixed battery of CLI commands, run in-process, against its committed
output in tests/data/cli_battery.jsonl.

Every record the battery prints is compared at the CLI's 12 printed digits,
without its wall_time_ms.  A change to any fixed-seed stream or to the
arithmetic behind a printed digit shows as a diff of that file.  Regenerate
it only for such a deliberate change, and name the change where it is
recorded:

    PYTHONPATH=src python tests/test_cli_golden.py --regenerate

To list what such a change moves, before or instead of regenerating:

    PYTHONPATH=src python tests/test_cli_golden.py --diff

prints each line of the committed file that the battery no longer prints
("-") and each printed line that the file does not hold ("+"), each with
its command, and exits 1 if there is any.
"""

import contextlib
import difflib
import io
import json
import sys
from pathlib import Path

from randcoh import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_battery.jsonl"

BATTERY = [
    "estimate --quantity coherence --m 2 --n 2 --samples 20000 --seed 7",
    "estimate --quantity coherence --m 3 --n 4 --samples 2000 --seed 3",
    "estimate --quantity diag-entropy --m 4 --n 8 --samples 1000 --seed 5",
    "estimate --quantity coherence --m 16 --n 32 --samples 100 --seed 9",
    "estimate --quantity entropy --m 2 --n 2 --samples 20000 --seed 7",
    "estimate --quantity subentropy --m 3 --n 4 --samples 2000 --seed 3",
    "estimate --quantity entropy --m 16 --n 32 --samples 400 --seed 9",
    "estimate --quantity diag-entropy --m 3 --n 4 --samples 300 --seed 2",
    "verify --m 2 --n 3 --samples 50000 --seed 1",
    "verify --m 2 --n 3 --samples 200 --seed 11",
    "verify --m 4 --n 8 --samples 200 --seed 12",
    "concentration --m 3 --n 3 --epsilon 0.2 --samples 10000 --seed 4",
    "concentration --m 3 --n 3 --epsilon 0.2 --samples 200 --seed 4",
    "sample --what spectrum --m 3 --n 4 --count 3 --seed 2",
    "sample --what state --m 2 --n 3 --count 2 --seed 2",
    "sample --what diag --m 4 --n 8 --count 3 --seed 2",
    "sample --what diag --m 2 --n 2 --count 3 --seed 2",
    "verify --m 3 --n 300 --samples 200 --seed 13",
    "estimate --quantity coherence --m 2 --n 2 --k 3 --samples 1000 --seed 5",
    "estimate --quantity diag-entropy --m 2 --n 2 --k 3 --samples 1000 --seed 5",
    "estimate --quantity entropy --m 2 --n 3 --k 3 --samples 1000 --seed 5",
    "estimate --quantity subentropy --m 2 --n 3 --k 3 --samples 1000 --seed 5",
    "estimate --quantity entropy --m 7 --n 7 --samples 3000 --seed 8",
    "estimate --quantity subentropy --m 8 --n 8 --samples 3000 --seed 8",
    "estimate --quantity coherence --m 4 --n 4 --k 2 --samples 5000 --seed 6",
    "verify --m 1 --n 2 --samples 200 --seed 14",
    "verify --m 2 --n 90 --k 2 --samples 200 --seed 15",
    "estimate --quantity entropy --m 3 --n 4 --samples 500 --seed 16 --bits",
]


def battery_lines() -> list[str]:
    """One JSON line per printed line of each command: the command, its exit
    code and the printed record without wall_time_ms."""
    lines = []
    for command in BATTERY:
        argv = command.split()
        if argv[0] != "sample":
            argv += ["--workers", "2"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        for printed in buf.getvalue().splitlines():
            record = json.loads(printed)
            if isinstance(record, dict):
                record.pop("wall_time_ms")
            lines.append(json.dumps({"command": command, "exit": code, "output": record}))
    return lines


def test_battery_prints_its_committed_output():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert battery_lines() == golden


def test_diff_lists_the_lines_that_moved(tmp_path, monkeypatch):
    golden = tmp_path / "battery.jsonl"
    golden.write_text("kept\nmoved\ndropped\n", encoding="utf-8")
    monkeypatch.setitem(globals(), "GOLDEN", golden)
    monkeypatch.setitem(globals(), "battery_lines", lambda: ["kept", "moved!", "added"])
    assert diff_lines() == ["- moved", "+ moved!", "- dropped", "+ added"]
    monkeypatch.setitem(globals(), "battery_lines", lambda: ["kept", "moved", "dropped"])
    assert diff_lines() == []


def diff_lines() -> list[str]:
    """The lines of the committed file that the battery no longer prints,
    marked "-", and the printed lines the file does not hold, marked "+"."""
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    return [line for line in difflib.ndiff(golden, battery_lines()) if line[:2] in ("- ", "+ ")]


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        changed = diff_lines()
        print("\n".join(changed + [f"{len(changed)} lines differ from {GOLDEN.name}"]))
        sys.exit(1 if changed else 0)
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(line + "\n" for line in battery_lines()), encoding="utf-8")
