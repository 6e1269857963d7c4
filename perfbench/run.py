#!/usr/bin/env python3
"""Build the daemon benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is its own Cargo package
(perfbench/Cargo.toml) with path dependencies on the repository's crates;
it is built offline in release mode into $CARGO_TARGET_DIR (default
perfbench/target). Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. A failed build exits
non-zero without printing a result.

The benchmark process runs with address-space layout randomisation off
(personality ADDR_NO_RANDOMIZE, where the kernel allows it), so every run
sees the same memory layout and layout luck does not show up as run-to-run
spread, and with one malloc arena (MALLOC_ARENA_MAX=1): with glibc's
per-thread arenas, which thread freed what moved the peak resident set of
one seed by up to 12% between runs; with one arena it moves by about 2%.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ADDR_NO_RANDOMIZE = 0x0040000


def no_aslr() -> None:
    """Disable layout randomisation for processes exec'd after this call."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"benchmark build failed (exit {build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "skycube-perfbench")
    sys.stdout.flush()
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    return subprocess.run(
        [exe] + sys.argv[1:], check=False, env=env, preexec_fn=no_aslr
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
