"""Peak resident memory of one `mvkc` call, measured in a fresh process.

    python3 bench/peak.py <src dir> <mvkc arguments...>

Imports the program from <src dir>, makes the call, and prints one JSON line
with its exit code and the process's peak resident set size (VmHWM, KiB)
just before and just after the call. The benchmark runs this as a child
process so that its own arrays do not count, and because tracemalloc slows
the program's per-edge Python loops some tenfold. VmHWM, unlike getrusage's
maxrss, does not carry over the parent's peak through fork and exec.
"""

import contextlib
import io
import json
import sys


def peak_rss_kib():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not found in /proc/self/status")


def main():
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    from mvkc import cli

    before = peak_rss_kib()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    after = peak_rss_kib()
    print(json.dumps({"code": code, "before_kib": before, "after_kib": after}))


if __name__ == "__main__":
    main()
