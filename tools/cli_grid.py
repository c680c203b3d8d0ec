"""Fingerprint 48 ``oilcast run`` invocations, to show a refactor changes no output.

The grid: one panel CSV from ``oilcast synth --seed 7``, split 2017-12,
p_threshold 0.3, and every method (``oilcast.cli.METHODS``) x dataset mode
(``oilcast.panel.MODES``: E, G, H) x Granger screen (off, on), in that order.
Each run is a fresh ``python3 -m oilcast.cli`` process using the ``src/`` of
the checkout this script sits in. One line per run gives the exit
code and the sha256 of ``predictions.csv``, ``metrics.txt``, stdout and
stderr. A first line gives the sha256 of the three files ``synth`` writes
(panel, tags and labels CSV), so the writers are checked byte for byte too;
the last line is one digest over all of them.

Usage, from each of two checkouts on the same host:

    python3 tools/cli_grid.py > grid.txt

then ``diff`` the two files. Outputs go to one fixed directory (removed and
rebuilt on every call), because the predictions preamble echoes the panel
path, so two checkouts must write to the same place to be comparable. The
BLAS thread count is inherited and does not change the output: CI runs the
grid at ``OPENBLAS_NUM_THREADS=1`` and ``=2`` and diffs the two.

    python3 tools/cli_grid.py --in-process > grid-in-process.txt

makes the same runs through ``oilcast.cli.main`` in this one process, with
stdout and stderr captured, so every run after the first reuses the panel
and tags parses that ``oilcast.panel`` keeps. Its lines must equal the
fresh-process ones; CI diffs the two.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(tempfile.gettempdir(), "oilcast-cli-grid")
SYNTH_FILES = (("panel", ".csv"), ("tags", ".tags.csv"), ("labels", ".labels.csv"))


def _cli(args: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``oilcast`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-m", "oilcast.cli", *args], env=env,
                          capture_output=True, check=False)
    return done.returncode, done.stdout, done.stderr


def _cli_in_process(args: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``oilcast.cli.main`` called in this process."""
    from oilcast.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _sha(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in-process", action="store_true",
                        help="call oilcast.cli.main in this process instead of a fresh one per run")
    cli = _cli_in_process if parser.parse_args().in_process else _cli
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from oilcast.cli import METHODS
    from oilcast.panel import MODES

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    prefix = os.path.join(WORK, "panel")
    code, _, err = cli(["synth", "--seed", "7", "--out", prefix])
    if code != 0:
        sys.stderr.write(err.decode())
        return 1
    total = hashlib.sha256()

    def emit(line: str) -> None:
        print(line, flush=True)
        total.update(line.encode() + b"\n")

    emit(f"synth exit={code} " + " ".join(f"{name}={_sha(_read(prefix + suffix))}"
                                          for name, suffix in SYNTH_FILES))
    for method in METHODS:
        for mode in MODES:
            for granger in ("false", "true"):
                out_dir = os.path.join(WORK, "out")
                shutil.rmtree(out_dir, ignore_errors=True)
                code, out, err = cli(["run", "--out-dir", out_dir,
                                      "--set", f"panel={prefix}.csv", "--set", "split=2017-12",
                                      "--set", "p_threshold=0.3", "--set", f"method={method}",
                                      "--set", f"mode={mode}", "--set", f"granger={granger}"])
                line = (f"{method} {mode} granger={granger} exit={code} "
                        f"predictions={_sha(_read(os.path.join(out_dir, 'predictions.csv')))} "
                        f"metrics={_sha(_read(os.path.join(out_dir, 'metrics.txt')))} "
                        f"stdout={_sha(out)} stderr={_sha(err)}")
                emit(line)
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
