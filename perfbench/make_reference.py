"""Regenerate ``reference.json`` from the current program.

    python3 perfbench/make_reference.py

Each workload's reference run uses fixed inputs; it is repeated with other
model or probe seeds, and the tolerance of each value is its spread (max -
min) across those seeds, so a change of reduction order passes while a
changed result does not.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH, ROOT, import_program

SEEDS = (1, 2, 3, 4)


def main() -> int:
    import_program()
    from workloads import REFERENCE_SEED, WORKLOADS

    workdir = ROOT / ".perfbench" / f"reference-{os.getpid()}"
    out = {}
    try:
        for name, cls in WORKLOADS.items():
            work = cls(0, workdir / name)
            ref = work.reference_values()
            others = [work.reference_values(s) for s in SEEDS]
            if name == "shd_search":
                tops = [ref["top"][0][1]] + [o["top"][0][1] for o in others]
                ref["tolerance"] = {"score": max(tops) - min(tops)}
            else:
                ref["tolerance"] = {key: max(v[key] for v in [ref] + others)
                                    - min(v[key] for v in [ref] + others) for key in ref}
            ref["seed"] = REFERENCE_SEED
            out[name] = ref
            print(name, json.dumps(ref["tolerance"]), file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
