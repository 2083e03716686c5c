"""Print the acceptance suite's ``-s`` output and the demos' output, with their
run-dependent parts masked.

Runs ``python -m pytest tests/test_acceptance.py -s`` from the root of the
checkout that holds this file, then each script in ``demos/`` in name order
(with ``-W error``, as tests/test_demos.py does), each under a header line.
It prints the output with every decimal number, pytest's temporary
directories, the checkout's path and the run time replaced by fixed tokens;
the demos print roundoff-size deviations, which the number mask covers.  Two
checkouts' outputs then compare line for line:

    python tests/mask_acceptance.py > before.txt    # in one checkout
    python tests/mask_acceptance.py > after.txt     # in the other
    diff before.txt after.txt

What is left unmasked is every verdict, count, dimension and name.  Standard
library only; pytest does not collect this file.  Exits with pytest's exit
code, or else with the first non-zero exit code of a demo.
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
    commands = [[sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s",
                 "-p", "no:cacheprovider"]]
    commands += [[sys.executable, "-W", "error", str(script)]
                 for script in sorted((ROOT / "demos").glob("*.py"))]
    codes = []
    for command in commands:
        if codes:
            print(f"== {Path(command[-1]).relative_to(ROOT)}", flush=True)
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        sys.stdout.write(mask(run.stdout))
        sys.stdout.flush()
        codes.append(run.returncode)
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main())
