"""
Exhaustive minimal-length searches
==================================

For each deck notion there is a smallest string length at which two
distinct strings become indistinguishable. These are found by enumerating
all 2^n strings, bucketing them by one 64-bit hash lane of their deck
signature, and confirming candidates exactly. Everything here finishes in
under a second; the depth-4 minimum at gap 2 (length 24) takes seconds and
is left to the CLI:

    gapdeck search G --s 2 --k 4 --n-max 24 --workers 8 --checkpoint ckpt/

gapdeck.bounds.MINIMA records every minimum printed here, with its witness.
"""
from gapdeck import GapParams, search_G, search_G_star, search_SU, search_exact_D

# Gap 2: full-deck minima at depths 2 and 3.
for k in (2, 3):
    r = search_G(GapParams(2, k), 13)
    x, y = r.witnesses[0]
    print(f"full-deck minimum, gap 2, depth {k}: n={r.n} "
          f"({''.join(map(str, x))} / {''.join(map(str, y))})")

# Gap 1 recovers the classical (ungapped) minima.
print("\ngap-1 minima:",
      [search_G(GapParams(1, k), 12).n for k in (2, 3, 4)])

# The four-way (punctured) relation is stricter, so its minima are larger.
print("four-way minima, gap 2:",
      [search_G_star(GapParams(2, k), 10).n for k in (1, 2)])

# Exact-deck minima: only the depth-k slice has to agree.
print("exact-slice minima, gap 2:",
      [search_exact_D(GapParams(2, k), 10).n for k in (2, 3, 4)])

# Wildcard-equivalence minima over the two-letter alphabet.
r = search_SU(3, 2)
print(f"\nwildcard family (3,2): first equivalent pair at m={r.n}: "
      f"{r.witnesses[0][0]} / {r.witnesses[0][1]}")
