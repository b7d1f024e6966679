#!/usr/bin/env python3
"""Show that the reference check catches a wrong answer.

Runs round 0 of every workload at the default seed once, then checks the
outputs twice: against reference.json as recorded, and against a copy in
which three operations per workload have one number moved by 1e-6 (relative,
at least 1e-6 absolute) or one digest altered. The first check must count no
failure and the second exactly the perturbed operations. Run from the root of
a checkout:

    python3 benchmark/selfcheck.py
"""

import copy
import json
import os
import shutil
import sys
import tempfile

from run import HERE, NAMES, WORK_ROOT, import_program


def perturb(observed: dict) -> str:
    """Move the first output number (or digest) of one observation; name the
    field. Inputs recorded next to the outputs are left alone."""
    for name, value in sorted(observed.items()):
        if name in ("args", "qth", "seed", "x"):
            continue
        if name == "digest":
            observed[name] = value[::-1]
            return name
        if isinstance(value, float):
            observed[name] = value + 1e-6 * max(abs(value), 1.0)
            return name
        if isinstance(value, list) and value and isinstance(value[-1], float):
            value[-1] += 1e-6 * max(abs(value[-1]), 1.0)
            return name
    raise ValueError("nothing to perturb")


def main() -> int:
    import_program()
    from workloads import Checker, check_calls, first_round

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    os.makedirs(WORK_ROOT, exist_ok=True)
    ok = True
    for name in NAMES:
        work = tempfile.mkdtemp(prefix=f"selfcheck-{name}-", dir=WORK_ROOT)
        try:
            calls = first_round(name, work)
            intact = Checker(reference[name])
            check_calls(calls, intact)
            bad = copy.deepcopy(reference[name])
            keys = sorted(bad)
            chosen = [keys[0], keys[len(keys) // 2], keys[-1]]
            fields = [f"{k}.{perturb(bad[k])}" for k in chosen]
            perturbed = Checker(bad)
            check_calls(calls, perturbed)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        passed = intact.failed == 0 and perturbed.failed == len(chosen)
        ok &= passed
        print(f"{name}: intact reference {intact.failed}/{intact.attempted} failed; "
              f"perturbed {', '.join(fields)} -> {perturbed.failed}/"
              f"{perturbed.attempted} failed: {'PASS' if passed else 'FAIL'}")
        for line in perturbed.failures:
            print(f"    {line[:160]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
