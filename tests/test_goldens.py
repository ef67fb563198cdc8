"""Golden payloads: every CLI command reproduces its committed numeric
payload byte for byte.

The payload is every line of an output file that does not start with
'#' (the manifest carries a timestamp).  The goldens in tests/goldens/
were captured with numpy 2.4.6 on x86_64; a different numpy or libm may
move the last digit of a 17-digit number.  Regenerate them with

    PYTHONPATH=src python tests/test_goldens.py

only when a payload change is intended.
"""

import contextlib
import importlib.resources
import io
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
                (GOLDEN_DIR / golden).write_text(payload)
                print(f"wrote {GOLDEN_DIR / golden}", file=sys.stderr)
