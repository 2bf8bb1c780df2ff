#!/usr/bin/env python3
"""Print the size of the public package: source lines and exported names.

    python ci/size.py

Lines are every line of every ``src/rsgd/*.py`` file, as ``wc -l`` counts
them.  Exported names are the public attributes of the imported ``rsgd``
package that are not modules (the package has no ``__all__``).  The output
is two lines, ``src_lines <n>`` and ``exported_names <n>``; it reports and
gates nothing.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def main() -> int:
    lines = sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "rsgd").glob("*.py")))
    sys.path.insert(0, str(SRC))
    import rsgd

    names = [n for n, v in vars(rsgd).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    print(f"src_lines {lines}")
    print(f"exported_names {len(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
