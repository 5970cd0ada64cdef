"""Re-record ``perfbench/references.json`` from the program as it is.

    python3 -m perfbench.record

Run from the checkout root, only on a commit whose outputs are known to
be right: the correctness gate of every later run compares against what
this writes.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.common import HERE, load_shapes  # noqa: E402


def main() -> int:
    refs = {}
    for name, shape in load_shapes().items():
        if shape["kind"] == "serve":
            from perfbench.serve import record

            refs[name] = record(name)
            continue
        out = subprocess.run(
            [sys.executable, "-m", "perfbench.sims", "record", name, "0", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout
        refs[name] = json.loads(out.strip().splitlines()[-1])
    with open(os.path.join(HERE, "references.json"), "w",
              encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
