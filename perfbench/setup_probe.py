"""One set-up sample, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py SRC_DIR LATTICE...
       python3 setup_probe.py --reference

The first form times ``import latlog`` from SRC_DIR plus loading and
validating the named bundled lattices.  The second times the import
reference: a fixed set of standard-library modules, pure Python and
compiled ones.  It runs no latlog code, so no change to latlog moves it.
Both print the seconds taken.
"""
import sys
import time

REFERENCE_MODULES = (
    "json", "decimal", "fractions", "argparse", "email.message", "http.client",
    "xml.dom.minidom", "unittest", "asyncio", "sqlite3", "ctypes", "logging.handlers",
)

t0 = time.perf_counter()
if sys.argv[1] == "--reference":
    for module in REFERENCE_MODULES:
        __import__(module)
else:
    sys.path.insert(0, sys.argv[1])
    import latlog  # noqa: E402

    for name in sys.argv[2:]:
        latlog.bundled_lattice(name)
print(repr(time.perf_counter() - t0))
