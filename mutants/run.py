"""Apply each mutant of ``mutants/table.py`` to a copy of the tree and run
the tests that must kill it.

    python3 mutants/run.py                 # every mutant
    python3 mutants/run.py ID [ID ...]     # the named mutants
    python3 mutants/run.py --noop          # also a planted no-op, which survives

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs every named test on the intact copy, which must
pass.  Then it applies one mutant at a time, runs only its tests, restores
the file, and prints "killed" when every one of them fails, or "survived",
with the seconds each took.
It exits 1 when a mutant survives or its tests cannot run, else 0.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from table import MUTANTS, NOOP  # noqa: E402


def pytest(tree, tests):
    """Run the named tests on the copy: pytest's exit code, the named tests
    that failed, and the seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    # a parametrized test fails when one of its cases does
    failed = [t for t in tests if any(f == t or f.startswith(t + "[") for f in failed)]
    return done.returncode, failed, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--noop", action="store_true", help="also plant a no-op mutant")
    args = parser.parse_args(argv)
    table = {m[0]: m for m in MUTANTS + ([NOOP] if args.noop else [])}
    unknown = [i for i in args.ids if i not in table]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [table[i] for i in args.ids] or list(table.values())

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="flagforms-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)

        tests = list(dict.fromkeys(t for m in chosen for t in m[4]))
        code, _, seconds = pytest(tree, tests)
        if code != 0:
            print(f"error: the named tests fail on the intact tree (pytest exit {code}, {seconds:.1f} s)")
            return 1
        print(f"intact tree: {len(tests)} tests pass ({seconds:.1f} s)")

        bad = 0
        for mutant_id, file, old, new, tests in chosen:
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"error     {mutant_id}: its old text occurs {text.count(old)} times in {file}")
                bad += 1
                continue
            path.write_text(text.replace(old, new))
            try:
                code, failed, seconds = pytest(tree, tests)
            finally:
                path.write_text(text)
            if code not in (0, 1):
                verdict = f"error (pytest exit {code})"
            elif len(failed) == len(tests):
                verdict = "killed"
            else:
                verdict = "survived"
                if failed:  # some of its tests passed
                    verdict += f" ({', '.join(t for t in tests if t not in failed)} passed)"
            bad += verdict != "killed"
            print(f"{verdict:9} {mutant_id} ({seconds:.1f} s)")
    print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
