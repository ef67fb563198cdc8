"""Golden payloads: every CLI command reproduces its committed numeric
payload byte for byte.

The payload is every line of an output file that does not start with
'#' (the manifest carries a timestamp).  The goldens in tests/goldens/
were captured with numpy 2.4.6 on x86_64; a different numpy or libm may
move the last digit of a 17-digit number.  Regenerate them with

    PYTHONPATH=src python tests/test_goldens.py

only when a payload change is intended.  Before it writes, that command
prints for each file whether the row count and every non-numeric field
match the committed golden, and the worst absolute and relative change
of each numeric column.
"""

import contextlib
import importlib.resources
import io
import math
import sys
from pathlib import Path

import pytest

from vdl import cli

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _config(name: str) -> str:
    return str(importlib.resources.files("vdl") / "configs" / name)


# name -> (argv with "{out}" standing for the output file or directory,
#          output files relative to "{out}", or None for the file itself)
CASES = {
    "sweep_tau": (["kernel-sweep", "--sweep", "tau", "--start", "0", "--stop", "5",
                   "--points", "6", "--alpha", "0.5", "--kappa", "1e8",
                   "--out", "{out}"], None),
    "sweep_alpha": (["kernel-sweep", "--sweep", "alpha", "--start", "0", "--stop", "1",
                     "--points", "5", "--tau", "2.5", "--kappa", "1e8",
                     "--out", "{out}"], None),
    "sweep_kappa_log": (["kernel-sweep", "--sweep", "kappa", "--scale", "log",
                         "--start", "10", "--stop", "1e8", "--points", "5",
                         "--tau", "1.5", "--alpha", "0.3", "--out", "{out}"], None),
    "oracle_check": (["oracle-check", "--m-max", "2", "--kappa-grid", "50",
                      "--tau-grid", "0.3,1.0", "--out", "{out}"], None),
    "feasibility_na_cluster": (["feasibility", "--config", _config("na_cluster.cfg"),
                                "--out", "{out}"], None),
    "feasibility_c60": (["feasibility", "--config", _config("c60.cfg"),
                         "--out", "{out}"], None),
    "figure2": (["figure2", "--out-dir", "{out}", "--points", "11",
                 "--alphas", "0.1,0.5", "--tau-max", "2.0"],
                ["figure2_alpha0.1.csv", "figure2_alpha0.5.csv"]),
    "modes_demo_center": (["modes-demo", "--kappa", "30", "--tau", "0.4",
                           "--grids", "20,40", "--out", "{out}"], None),
    "modes_demo_plates": (["modes-demo", "--kappa", "30", "--tau", "0.4", "--plates",
                           "--grids", "20,40", "--out", "{out}"], None),
}


def _payloads(name: str, work: Path) -> dict[str, str]:
    """Run one case in ``work``; map golden file name -> payload text."""
    argv, files = CASES[name]
    out = work / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([a.replace("{out}", str(out)) for a in argv])
    assert code == 0, f"{name} exited with {code}"
    paths = {f"{name}.csv": out} if files is None else {f: out / f for f in files}
    return {
        golden: "".join(ln + "\n" for ln in path.read_text().splitlines()
                        if not ln.startswith("#"))
        for golden, path in paths.items()
    }


def _fields(line: str) -> list[str]:
    """A payload line's fields: comma-separated, or whitespace-aligned."""
    return line.split(",") if "," in line else line.split()


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def change_report(golden: str, old: str, new: str) -> list[str]:
    """What moved from the committed payload ``old`` to ``new``: the row
    count, every non-numeric field, and the worst absolute and relative
    change of each numeric column, named by the header row."""
    old_rows = [_fields(ln) for ln in old.splitlines()]
    new_rows = [_fields(ln) for ln in new.splitlines()]
    text_match = True
    worst: dict[int, tuple[float, float]] = {}
    for old_row, new_row in zip(old_rows, new_rows):
        text_match &= len(old_row) == len(new_row)
        for col, (a, b) in enumerate(zip(old_row, new_row)):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                text_match &= a == b
                continue
            same = x == y or (math.isnan(x) and math.isnan(y))
            d = 0.0 if same else abs(y - x)
            d = math.inf if math.isnan(d) else d
            rel = d / abs(x) if x else (0.0 if d == 0.0 else math.inf)
            d0, rel0 = worst.get(col, (0.0, 0.0))
            worst[col] = (max(d0, d), max(rel0, rel))
    rows = "match" if len(old_rows) == len(new_rows) else "DIFFER"
    lines = [f"{golden}: rows {len(old_rows)} -> {len(new_rows)} ({rows}); "
             f"non-numeric fields {'match' if text_match else 'DIFFER'}"]
    header = new_rows[0] if new_rows else []
    for col, (d, rel) in sorted(worst.items()):
        name = header[col] if col < len(header) else f"column {col}"
        lines.append(f"  {name}: worst |change| {d:.3g}, worst relative change {rel:.3g}")
    return lines


def test_change_report():
    old = "tau,gamma,status\n1,0.5,ok\n2,0.25,ok\n"
    assert change_report("g.csv", old, old) == [
        "g.csv: rows 3 -> 3 (match); non-numeric fields match",
        "  tau: worst |change| 0, worst relative change 0",
        "  gamma: worst |change| 0, worst relative change 0",
    ]
    lines = change_report("g.csv", old, "tau,gamma,status\n1,0.5,ok\n2,0.3,failed\n")
    assert lines[0] == "g.csv: rows 3 -> 3 (match); non-numeric fields DIFFER"
    assert lines[2] == "  gamma: worst |change| 0.05, worst relative change 0.2"
    assert change_report("g.csv", old, old + "3,nan,ok\n")[0].startswith(
        "g.csv: rows 3 -> 4 (DIFFER)")


@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name, tmp_path):
    for golden, payload in _payloads(name, tmp_path).items():
        assert payload == (GOLDEN_DIR / golden).read_text(), golden


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for golden, payload in _payloads(case, Path(tmp)).items():
                path = GOLDEN_DIR / golden
                old = path.read_text() if path.exists() else ""
                for line in change_report(golden, old, payload):
                    print(line, file=sys.stderr)
                path.write_text(payload)
                print(f"wrote {path}", file=sys.stderr)
