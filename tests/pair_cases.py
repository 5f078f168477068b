"""The symmetric pair instances the structure-table tests run over.

Every label with a rank parameter appears at each admissible rank up to 8
and, where it takes one, each admissible r; the exceptional labels appear
once.  134 cases in all.
"""

ALL_CASES = []
for n in range(1, 9):
    ALL_CASES.append(("AI", n, None))
for n in (3, 5, 7):
    ALL_CASES.append(("AII", n, None))
for n in range(2, 9):
    for r in range(1, (n + 1) // 2 + 1):
        ALL_CASES.append(("AIII", n, r))
for n in range(2, 9):
    for r in range(1, n + 1):
        ALL_CASES.append(("BI", n, r))
for n in range(2, 9):
    ALL_CASES.append(("CI", n, None))
for n in range(3, 9):
    for r in range(2, n, 2):
        ALL_CASES.append(("CII-1", n, r))
for n in (4, 6, 8):
    ALL_CASES.append(("CII-2", n, None))
for n in range(4, 9):
    for r in range(1, n - 1):
        ALL_CASES.append(("DI-1", n, r))
    ALL_CASES.append(("DI-2", n, None))
    ALL_CASES.append(("DI-3", n, None))
for n in (4, 6, 8):
    ALL_CASES.append(("DIII-1", n, None))
for n in (5, 7):
    ALL_CASES.append(("DIII-2", n, None))
for label in ("EI", "EII", "EIII", "EIV", "EV", "EVI", "EVII", "EVIII",
              "EIX", "FI", "FII", "G"):
    ALL_CASES.append((label, None, None))
