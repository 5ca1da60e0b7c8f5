"""Check that this tree's command line prints what another tree's does.

    python tools/same_output.py PARENT_TREE

runs each argv of ``ARGVS`` as ``python -m qmcmc.cli`` once under
``PYTHONPATH=PARENT_TREE/src`` and once under this tree's ``src``, blanks
the ``wall_time`` column of any CSV rows, and prints each argv whose stdout,
stderr or exit code differ between the two. Exits 1 if any does, else 0.
``{ham}`` in an argv stands for the 2-spin model file ``0.7 ZZ / -0.4 XI /
0.3 IY``.
"""

from __future__ import annotations

import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_HAM = "0.7 ZZ\n-0.4 XI\n0.3 IY\n"
_FRAMED = ("sample -q --model {model} --beta 1 --g 0.05 --nt 40 --ncycle 4 --shots 256 "
           "--burnin {burnin} --seed 5")

ARGVS = (
    # the benchmark's three workloads at seed 0
    "thermalize -q --model tfim --n 4 --hj 1 --beta 10 --g 0.005 --nt 5000 --ncycle 20",
    "experiment graph -q --n 2,3 --pe 0.4,0.8 --beta 10,1,0.1 --seed 0 --g 0.005 --nt 5000 "
    "--ncycle 50",
    "sample -q --model graph --n 3 --pe 0.5 --beta 1 --g 0.02 --nt 200 --ncycle 5 --shots 256 "
    "--burnin 1 --seed 0",
    "validate --model tfim --n 2 --beta 10 --g 0.005 --nt 5000 --ncycle 500",
    "experiment magnetization -q --n 1,2 --beta 0.3,1 --g 0.05 --nt 30 --ncycle 8 --mode evolve "
    "--sweeps 5 --seed 4",
    "experiment graph -q --n 2 --pe 0.5 --beta 1 --g 1e308 --nt 30 --ncycle 8",
    # the fidelity and magnetization of a framed state, and a sweep of four
    # models at two betas each, on one thread and on two
    "thermalize -q --model {ham} --beta 0.7 --g 0.05 --nt 40 --ncycle 8",
    "experiment tfim -q --n 1,2 --hj 0.5,1 --beta 0.5,2 --g 0.05 --nt 30 --ncycle 8",
    "experiment tfim -q --n 1,2 --hj 0.5,1 --beta 0.5,2 --g 0.05 --nt 30 --ncycle 8 "
    "--workers 2",
    # framed samples with no burn-in period and with two
    _FRAMED.format(model="tfim --n 3 --hj 1", burnin=0),
    _FRAMED.format(model="tfim --n 3 --hj 1", burnin=2),
    _FRAMED.format(model="{ham}", burnin=0),
)


def _blank_wall_time(text: str) -> str:
    """``text`` with the ``wall_time`` field of each CSV row after a header
    that names it made empty; every other line as it is."""
    lines, column = [], None
    for line in text.splitlines():
        fields = next(csv.reader([line]), [])
        if column is None and "wall_time" in fields:
            column = fields.index("wall_time")
        elif column is not None and len(fields) > column:
            fields[column] = ""
            out = io.StringIO()
            csv.writer(out, lineterminator="").writerow(fields)
            line = out.getvalue()
        lines.append(line)
    return "\n".join(lines)


def _run(tree: Path, argv: str, workdir: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    done = subprocess.run([sys.executable, "-m", "qmcmc.cli", *argv.split()], cwd=workdir,
                          env=env, capture_output=True, text=True)
    return done.returncode, _blank_wall_time(done.stdout), done.stderr


def differences(parent: Path, tree: Path, argvs=ARGVS) -> list[str]:
    """The argvs of ``argvs`` whose exit code, stdout (``wall_time``
    blanked) or stderr differ between ``parent`` and ``tree``."""
    with tempfile.TemporaryDirectory() as workdir:
        ham = Path(workdir) / "model.ham"
        ham.write_text(_HAM)
        return [argv for argv in argvs
                if _run(parent, argv.format(ham=ham), workdir)
                != _run(tree, argv.format(ham=ham), workdir)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    differ = differences(Path(argv[0]), _ROOT)
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(ARGVS) - len(differ)} of {len(ARGVS)} argvs print the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
