"""Regenerate the golden outputs in ``golden/`` from the current sources.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known to be right; every benchmark
job is checked byte for byte against what this writes.
"""

import os

from run import ROOT, import_package


def main() -> None:
    workloads = import_package()
    os.chdir(ROOT)
    for name, workload in workloads.WORKLOADS.items():
        outputs: dict[str, str] = {}
        for job in workload.prepare():
            produced = job.output(job.run())
            if sorted(produced) != sorted(job.expect):
                raise SystemExit(f"{name} {job.key}: produced keys {sorted(produced)}")
            outputs.update(produced)
        workloads.save_golden(name, outputs)
        print(f"{name}: {len(outputs)} golden entries")


if __name__ == "__main__":
    main()
