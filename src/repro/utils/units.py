"""Unit constants used throughout the simulator.

Simulated time is kept in **nanoseconds** (floats), matching DRAM timing
datasheets.  Sizes are kept in bits or bytes as noted at each use site.
"""

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000

# Time units expressed in nanoseconds.
NS = 1.0
US = 1_000.0
MS = 1_000_000.0

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0
