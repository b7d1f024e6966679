#!/usr/bin/env python3
"""Record reference.json: the outputs of round 0 of every workload at the
default seed. Run from the root of a checkout:

    python3 benchmark/record_reference.py

Recording refuses to write when any invariant check fails. Re-record only
in a change that says why the outputs moved.
"""

import json
import os
import shutil
import sys
import tempfile

from run import HERE, NAMES, WORK_ROOT, import_program


def main() -> int:
    import_program()
    from workloads import Checker, check_calls, first_round

    reference = {}
    os.makedirs(WORK_ROOT, exist_ok=True)
    for name in NAMES:
        work = tempfile.mkdtemp(prefix=f"record-{name}-", dir=WORK_ROOT)
        try:
            checker = Checker(None)
            check_calls(first_round(name, work), checker)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if checker.failed:
            print("\n".join(checker.failures), file=sys.stderr)
            return 1
        reference[name] = checker.observed
        print(f"{name}: {checker.attempted} operations recorded")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
