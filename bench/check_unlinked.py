#!/usr/bin/env python3
"""Link audit: `pqs::` functions in libpqs_core.a that no program links.

Reads the symbol tables with `nm` and prints every `pqs::` text symbol the
library defines and none of the given executables contains. Exit 0 when
that list is empty, 1 otherwise.

The list means "no program calls this" only for a build where an unused
function is its own section and the linker drops it:

  cmake -S . -B build-audit -DPQS_ENABLE_IPO=OFF \\
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \\
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -fno-inline -ffunction-sections -DNDEBUG" \\
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"

-fno-inline keeps every call a call, so a function that is only ever
inlined still shows up as linked. Pass every test and bench executable and
perfbench's pqs_bench (built the same way): a function only the frozen
benchmark calls is still in use.

Usage: check_unlinked.py LIBRARY.a EXECUTABLE...
"""

import re
import subprocess
import sys

# Special members the compiler emits on its own, not functions someone
# wrote. Connection's destructor is `= default` on an abstract base: the
# library carries copies for the vtable, but its body is empty, so the
# optimizer drops the derived destructors' calls to it, and no object is
# ever destroyed as a plain Connection.
ALLOWED = {
    "pqs::Connection::~Connection()",
}

TEXT_TYPES = {"T", "t", "W"}
CLONE_SUFFIX = re.compile(r" \[clone [^\]]*\]")


def text_symbols(path):
    """Demangled names of the functions `path` defines."""
    out = subprocess.run(["nm", "--defined-only", "-C", path],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        fields = line.split(maxsplit=2)
        if len(fields) == 3 and fields[1] in TEXT_TYPES:
            # An optimizer clone (.constprop, .isra, .cold) is the same
            # function for this audit.
            names.add(CLONE_SUFFIX.sub("", fields[2]))
    return names


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[-1])
        return 2
    defined = {s for s in text_symbols(argv[1]) if s.startswith("pqs::")}
    linked = set()
    for exe in argv[2:]:
        linked |= text_symbols(exe)
    unlinked = sorted(defined - linked - ALLOWED)
    for name in unlinked:
        print("unlinked: " + name)
    print("check_unlinked: %d pqs:: functions in %s, %d executables, "
          "%d unlinked" % (len(defined), argv[1], len(argv) - 2,
                           len(unlinked)))
    return 1 if unlinked else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
