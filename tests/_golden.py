"""Golden files: the output pins of the suite, under `tests/golden/`.

A pin fails with every row that differs, the relative change of each number
in it that moved, and the observed file under the test's `tmp_path`;
re-recording a pin is copying that file over the golden one.
"""

import difflib
import re
from itertools import zip_longest
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")


def assert_golden(tmp_path: Path, observed: dict) -> None:
    """Each entry of `observed`, keyed by its golden file's path under
    `tests/golden/`, is a written file, or a text that is first written under
    `tmp_path / "observed"`; each must equal its golden file byte for byte."""
    report = []
    for name, seen in observed.items():
        if not isinstance(seen, Path):
            text, seen = seen, tmp_path / "observed" / name
            seen.parent.mkdir(parents=True, exist_ok=True)
            seen.write_bytes(text.encode())
        want, got = (GOLDEN / name).read_bytes(), seen.read_bytes()
        if got != want:
            report.append(f"{GOLDEN / name} differs from the observed {seen}")
            report += _moved_rows(want.decode().splitlines(),
                                  got.decode().splitlines())
    assert not report, "\n".join(report)


def _moved_rows(want: list, got: list) -> list:
    """Each differing golden row by its 1-based number, the observed row in
    its place ('' for none) and, where both hold as many numbers, each number
    that moved with its relative change."""
    lines = []
    matcher = difflib.SequenceMatcher(None, want, got, autojunk=False)
    for tag, i0, i1, j0, j1 in matcher.get_opcodes():
        if tag == "equal":
            continue
        pairs = zip_longest(want[i0:i1], got[j0:j1], fillvalue="")
        for row, (old, new) in enumerate(pairs, i0 + 1):
            lines += [f"  row {row}:", f"    - {old}", f"    + {new}"]
            a, b = _NUMBER.findall(old), _NUMBER.findall(new)
            if len(a) == len(b):
                lines += [f"      {x} -> {y}{_rel(x, y)}"
                          for x, y in zip(a, b) if x != y]
    return lines


def _rel(x: str, y: str) -> str:
    return f" (rel {(float(y) - float(x)) / abs(float(x)):+.2e})" if float(x) else ""
