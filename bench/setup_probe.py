"""Set-up cost in a fresh interpreter: import superpbw, parse and validate.

Usage: python3 setup_probe.py SRC_DIR [CATALOG_NAME ...]

Parses (which validates) every named catalog entry, or all of them when none
is named, and prints the seconds from before the import to the end, scaled
to the reference CPU speed (speed.py), then the wall seconds.
"""

import sys

from speed import SpeedClock

sys.path.insert(0, sys.argv[1])

with SpeedClock() as clock:
    import superpbw
    from superpbw.catalog import CATALOG

    for name in sys.argv[2:] or list(CATALOG):
        superpbw.parse_definition_text(CATALOG[name])
print(repr(clock.scaled_s), repr(clock.wall_s))
