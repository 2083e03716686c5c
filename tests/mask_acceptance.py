"""Print the acceptance suite's ``-s`` output with its run-dependent parts masked.

Runs ``python -m pytest tests/test_acceptance.py -s`` from the root of the
checkout that holds this file, and prints the output with every decimal
number, pytest's temporary directories, the checkout's path and the run time
replaced by fixed tokens.  Two checkouts' outputs then compare line for line:

    python tests/mask_acceptance.py > before.txt    # in one checkout
    python tests/mask_acceptance.py > after.txt     # in the other
    diff before.txt after.txt

What is left unmasked is every verdict, count, dimension and name.  Standard
library only; pytest does not collect this file.  Exits with pytest's exit
code.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MASKS = (
    (re.compile(r"\S*/pytest-of-[^/\s]+/pytest-\d+"), "<tmp>"),
    (re.compile(r"\(\d+:\d\d:\d\d\)"), "(<time>)"),
    (re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+)(?!\d|\.\d)"), "<float>"),
)


def mask(text: str) -> str:
    text = text.replace(str(ROOT), "<root>")
    for pattern, token in MASKS:
        text = pattern.sub(token, text)
    return text


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    sys.stdout.write(mask(run.stdout))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
