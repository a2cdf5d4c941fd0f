"""Run one wavetriple CLI command in a child process and gate its peak memory.

    python .github/peak_rss.py BOUND_MB TIMEOUT_S COMMAND [ARGS...]

The child runs `python -W error -m wavetriple.cli COMMAND ARGS...` with this
process's environment (set PYTHONPATH=src to run the checkout), so a numeric
warning that escapes the code expecting it ends the child with an error.  The
child's stdout and stderr pass through.  Prints the exit code and the child's
peak resident set size (ru_maxrss), and exits 1 unless the child exited 0
within TIMEOUT_S seconds with a peak below BOUND_MB.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound, timeout, cli_args = float(argv[0]), float(argv[1]), argv[2:]
    child = [sys.executable, "-W", "error", "-m", "wavetriple.cli", *cli_args]
    try:
        code = subprocess.run(child, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = f"timeout after {timeout:g} s"
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit {code}, peak RSS {peak:.1f} MB")
    if code == 0 and peak < bound:
        return 0
    print(f"{cli_args[0]} must exit 0 with a peak RSS below {bound:g} MB", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
