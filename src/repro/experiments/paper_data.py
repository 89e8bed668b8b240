"""The paper's published numbers, transcribed from the ISCA 1985 text.

Everything the evaluation prints is compared against these values.  Keys
follow the tables' own axes:

* Tables 1 and 2: ``(n, m)`` with ``r = min(n, m) + 7``;
* Table 3 (a: simulation, b: approximate model) and Table 4: ``(m, r)``
  with ``n = 8``, priority to processors;
* figure curve sets: the scanned legends are partly illegible, so the
  reconstruction choices are recorded here once and reused everywhere.
"""

from __future__ import annotations

TABLE1_EXACT_MEMORY_PRIORITY: dict[tuple[int, int], float] = {
    (2, 2): 1.417, (2, 4): 1.625, (2, 6): 1.694, (2, 8): 1.729,
    (4, 2): 1.625, (4, 4): 2.308, (4, 6): 2.603, (4, 8): 2.761,
    (6, 2): 1.694, (6, 4): 2.603, (6, 6): 3.164, (6, 8): 3.469,
    (8, 2): 1.729, (8, 4): 2.761, (8, 6): 3.469, (8, 8): 3.988,
}
"""Table 1: exact EBW, priority to memories, ``r = min(n, m) + 7``."""

TABLE2_APPROX_MEMORY_PRIORITY: dict[tuple[int, int], float] = {
    (2, 2): 1.417, (2, 4): 1.625, (2, 6): 1.694, (2, 8): 1.729,
    (4, 2): 1.729, (4, 4): 2.392, (4, 6): 2.653, (4, 8): 2.792,
    (6, 2): 1.807, (6, 4): 2.778, (6, 6): 3.305, (6, 8): 3.570,
    (8, 2): 1.827, (8, 4): 2.987, (8, 6): 3.692, (8, 8): 4.178,
}
"""Table 2: combinational approximation (non-symmetric), same grid."""

TABLE3_PROCESSORS = 8
TABLE3_M_VALUES = (4, 6, 8, 10, 12, 14, 16)
TABLE3_R_VALUES = (2, 4, 6, 8, 10, 12)

TABLE3A_SIMULATION: dict[tuple[int, int], float] = {
    (4, 2): 1.998, (4, 4): 2.867, (4, 6): 3.155, (4, 8): 3.287,
    (4, 10): 3.205, (4, 12): 3.220,
    (6, 2): 2.000, (6, 4): 2.986, (6, 6): 3.766, (6, 8): 4.033,
    (6, 10): 4.083, (6, 12): 4.117,
    (8, 2): 2.000, (8, 4): 2.999, (8, 6): 3.934, (8, 8): 4.523,
    (8, 10): 4.650, (8, 12): 4.722,
    (10, 2): 2.000, (10, 4): 3.000, (10, 6): 3.983, (10, 8): 4.766,
    (10, 10): 5.102, (10, 12): 5.144,
    (12, 2): 2.000, (12, 4): 3.000, (12, 6): 3.996, (12, 8): 4.878,
    (12, 10): 5.367, (12, 12): 5.464,
    (14, 2): 2.000, (14, 4): 3.000, (14, 6): 4.000, (14, 8): 4.947,
    (14, 10): 5.569, (14, 12): 5.732,
    (16, 2): 2.000, (16, 4): 3.000, (16, 6): 4.000, (16, 8): 4.977,
    (16, 10): 5.698, (16, 12): 5.959,
}
"""Table 3(a): the authors' simulation, priority to processors, n = 8.

Note the (4, 8) entry (3.287): it exceeds both its r-neighbours (3.155,
3.205) while every other row is monotone in r; our simulation and both
approximate models indicate it is a statistical outlier of the 1985
runs.
"""

TABLE3B_APPROX_MODEL: dict[tuple[int, int], float] = {
    (4, 2): 1.994, (4, 4): 2.727, (4, 6): 2.992, (4, 8): 3.089,
    (4, 10): 3.133, (4, 12): 3.156,
    (6, 2): 1.999, (6, 4): 2.956, (6, 6): 3.582, (6, 8): 3.854,
    (6, 10): 3.973, (6, 12): 4.033,
    (8, 2): 2.000, (8, 4): 2.994, (8, 6): 3.848, (8, 8): 4.344,
    (8, 10): 4.577, (8, 12): 4.692,
    (10, 2): 2.000, (10, 4): 2.999, (10, 6): 3.947, (10, 8): 4.633,
    (10, 10): 5.000, (10, 12): 5.184,
    (12, 2): 2.000, (12, 4): 2.999, (12, 6): 3.981, (12, 8): 4.794,
    (12, 10): 5.288, (12, 12): 5.546,
    (14, 2): 2.000, (14, 4): 3.000, (14, 6): 3.992, (14, 8): 4.880,
    (14, 10): 5.480, (14, 12): 5.810,
    (16, 2): 2.000, (16, 4): 3.000, (16, 6): 3.997, (16, 8): 4.927,
    (16, 10): 5.608, (16, 12): 6.000,
}
"""Table 3(b): the paper's reduced Markov chain, priority to processors.

The (6, 8) entry is printed as 2.854 in the scan, surrounded by 3.582
and 3.973; it is transcribed here as 3.854 (an evident typography slip:
the same column position in neighbouring rows reads 4.344/4.633).
"""

TABLE4_PROCESSORS = 8
TABLE4_M_VALUES = (4, 6, 8, 10, 12, 14, 16)
TABLE4_R_VALUES = (6, 8, 10, 12, 14, 16, 18, 20, 22, 24)

TABLE4_BUFFERED_SIMULATION: dict[tuple[int, int], float] = {
    (4, 6): 3.915, (4, 8): 3.938, (4, 10): 3.815, (4, 12): 3.731,
    (4, 14): 3.661, (4, 16): 3.617, (4, 18): 3.575, (4, 20): 3.541,
    (4, 22): 3.523, (4, 24): 3.499,
    (6, 6): 3.997, (6, 8): 4.747, (6, 10): 4.795, (6, 12): 4.734,
    (6, 14): 4.674, (6, 16): 4.630, (6, 18): 4.588, (6, 20): 4.560,
    (6, 22): 4.529, (6, 24): 4.506,
    (8, 6): 4.000, (8, 8): 4.943, (8, 10): 5.312, (8, 12): 5.312,
    (8, 14): 5.275, (8, 16): 5.239, (8, 18): 5.206, (8, 20): 5.180,
    (8, 22): 5.155, (8, 24): 5.136,
    (10, 6): 4.000, (10, 8): 4.984, (10, 10): 5.608, (10, 12): 5.724,
    (10, 14): 5.725, (10, 16): 5.709, (10, 18): 5.685, (10, 20): 5.666,
    (10, 22): 5.647, (10, 24): 5.633,
    (12, 6): 4.000, (12, 8): 4.994, (12, 10): 5.778, (12, 12): 5.987,
    (12, 14): 6.020, (12, 16): 6.019, (12, 18): 6.010, (12, 20): 5.997,
    (12, 22): 5.983, (12, 24): 5.970,
    (14, 6): 4.000, (14, 8): 4.998, (14, 10): 5.867, (14, 12): 6.178,
    (14, 14): 6.237, (14, 16): 6.246, (14, 18): 6.245, (14, 20): 6.232,
    (14, 22): 6.223, (14, 24): 6.217,
    (16, 6): 4.000, (16, 8): 4.999, (16, 10): 5.912, (16, 12): 6.325,
    (16, 14): 6.405, (16, 16): 6.428, (16, 18): 6.429, (16, 20): 6.421,
    (16, 22): 6.414, (16, 24): 6.410,
}
"""Table 4: buffered-system simulation, priority to processors, n = 8.

The (14, 10) entry is printed as "I867" in the scan, transcribed as
5.867 by column continuity (5.778 above, 5.912 below).
"""

# ----------------------------------------------------------------------
# Figure reconstructions (scanned legends are partially illegible; these
# choices are recorded here once).
# ----------------------------------------------------------------------
FIGURE2_SYSTEMS: tuple[tuple[int, int], ...] = ((4, 4), (8, 8), (16, 16))
FIGURE2_R_VALUES: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 16, 20, 24)

FIGURE3_PROCESSORS = 8
FIGURE3_MEMORIES = 16
FIGURE3_R_VALUES: tuple[int, ...] = (4, 8, 12, 16)
FIGURE3_P_VALUES: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

FIGURE5_SYSTEMS: tuple[tuple[int, int], ...] = ((8, 8), (8, 16), (16, 16))
FIGURE5_R_VALUES: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 16, 20, 24)

FIGURE6_PROCESSORS = 8
FIGURE6_MEMORIES = 16
FIGURE6_R_VALUES: tuple[int, ...] = (4, 8, 12, 16)
FIGURE6_P_VALUES: tuple[float, ...] = FIGURE3_P_VALUES
