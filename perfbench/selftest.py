"""Self-tests of the benchmark's inputs.

Run from the repository root::

    python3 perfbench/selftest.py [--seed N]

For every workload: one seed gives identical input digests and an
identical cover weight on two independent builds, and a different seed
changes the input digest.  Building a workload also checks that its tuple
count lies in the stated range, and running its ops checks the violation
counts.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import sys

from run import WORKDIR, _import_program


def _cover_weight(workload, ops: int) -> tuple[float, int]:
    workload.setup()
    workload.start()
    for _ in range(ops):
        workload.prepare()
        workload.check(workload.op())
    workload.finish()
    weight = workload.cover_weight()
    workload.close()
    return weight


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workloads = _import_program()
    WORKDIR.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        first, second = cls(args.seed, WORKDIR), cls(args.seed, WORKDIR)
        assert first.input_digest == second.input_digest, f"{name}: same seed, other input"
        other = cls(args.seed + 1, WORKDIR).input_digest
        assert other != first.input_digest, f"{name}: other seed, same input"
        ops = workloads.WEIGHED_COMMITS if name == "tpch_incremental" else 1
        weights = _cover_weight(first, ops), _cover_weight(second, ops)
        assert weights[0] == weights[1], f"{name}: same seed, cover weights {weights}"
        print(f"ok {name}: input {first.input_digest}, cover weight {weights[0][0]:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
