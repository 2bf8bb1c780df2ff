#!/usr/bin/env python3
"""Run one ``rsgd`` command in this interpreter and print its peak RSS.

    python ci/peak_rss.py run --config exp.ini --horizon 2000 --quiet

The arguments are those of the ``rsgd`` console script.  The command runs
through ``rsgd.cli.main`` of whichever ``rsgd`` this interpreter imports
(the installed package, when the script is run from outside the checkout),
and the last line of standard output is ``peak_rss_kib <n>``: the peak
resident set of this process, set-up and command together.  That is
``VmHWM`` from ``/proc/self/status`` where the file exists (Linux).  Linux
keeps ``ru_maxrss`` across exec, so when a large process forks and execs
this script, ``ru_maxrss`` can report that process's peak instead of this
one's.  Elsewhere the script falls back to ``ru_maxrss``.  The exit status
is the command's.  Comparing two such readings, each from a fresh
interpreter, shows how much memory a command's work adds.
"""

from __future__ import annotations

import resource
import sys


def peak_rss_kib() -> int:
    """VmHWM of this process in KiB, or ru_maxrss where /proc has no status."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


def main() -> int:
    from rsgd.cli import main as rsgd_main

    code = rsgd_main(sys.argv[1:])
    print(f"peak_rss_kib {peak_rss_kib()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
