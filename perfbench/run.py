#!/usr/bin/env python3
"""Builds reliab-serve and the perfbench runner from source, then runs
one benchmark workload.

    python3 perfbench/run.py --workload serve_keepalive|scenario_sweep|kernel_mix \\
        --seed N --seconds S --trace 0|1

Build outputs go to $CARGO_TARGET_DIR (default: .bench_build at the
repository root); a traced run writes its spans to
<target>/perfbench/trace-<workload>-<seed>.json. The last line of
standard output is the result object; build progress goes to standard
error. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build(target: Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in (
        (ROOT / "Cargo.toml", ["-p", "reliab-engine", "--bin", "reliab-serve"]),
        (ROOT / "perfbench" / "Cargo.toml", []),
    ):
        subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(manifest), *extra],
            env=env, stdout=sys.stderr, check=True,
        )


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    try:
        build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    release = target / "release"
    return subprocess.run([
        str(release / "perfbench"), *sys.argv[1:],
        "--serve-bin", str(release / "reliab-serve"),
        "--out-dir", str(target / "perfbench"),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
