"""Seeded, offline benchmark of the locscore scoring engine.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload stream-mixed --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each was chosen):

* ``stream-mixed``: trainer-step traffic through ``run_service``;
* ``stream-dense``: crowded scenes through ``run_service``;
* ``batch-eval``: ``run_batch`` (``locscore score``) on 500-image manifests.

Every response is checked. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an output check fails and 2 when the engine sources
are missing from the current directory.
"""

import sys
from pathlib import Path

NEEDED = ("src/locscore/__init__.py", "tests/oracles.py", "fixtures/manifest.jsonl")


def main() -> int:
    root = Path.cwd()
    missing = [name for name in NEEDED if not (root / name).is_file()]
    if missing:
        sys.stderr.write(f"perfbench: run from the repository root; missing {', '.join(missing)}\n")
        return 2
    # this directory is already first on the path, as the script's own
    sys.path[1:1] = [str(root / "src"), str(root / "tests")]
    import bench

    return bench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
