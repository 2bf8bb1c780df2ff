#!/usr/bin/env python3
"""Run one ``rsgd`` command in this interpreter and print its peak RSS.

    python ci/peak_rss.py run --config exp.ini --horizon 2000 --quiet

The arguments are those of the ``rsgd`` console script.  The command runs
through ``rsgd.cli.main`` of whichever ``rsgd`` this interpreter imports
(the installed package, when the script is run from outside the checkout),
and the last line of standard output is ``peak_rss_kib <n>``: ``ru_maxrss``
of this process, set-up and command together.  The exit status is the
command's.  Comparing two such readings, each from a fresh interpreter,
shows how much memory a command's work adds.
"""

from __future__ import annotations

import resource
import sys


def main() -> int:
    from rsgd.cli import main as rsgd_main

    code = rsgd_main(sys.argv[1:])
    # ru_maxrss is in KiB on Linux
    print(f"peak_rss_kib {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}")
    return code


if __name__ == "__main__":
    sys.exit(main())
