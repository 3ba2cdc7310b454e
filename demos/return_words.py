"""
Return words and the recurrence identity
========================================

Every gap between consecutive occurrences of a factor w cuts the word
into "return words" of w.  The recurrence time of the prefix cylinder
is just the length of the shortest one.  Sturmian prefixes always have
exactly two return words, and consecutive substitution images of the
two letters reproduce them.
"""

from subrec import kappa_images, parse_kappa, return_table
from subrec.presets import get_preset

src = get_preset("fibonacci")
table = return_table(src, 8, 65536)

print("  n  tau  return words")
for row in table:
    print("%3d  %3d  %s" % (row.n, row.tau, " ".join(row.words)))

# tau equals the shortest return word length at every depth
assert all(row.tau == min(len(w) for w in row.words) for row in table)

# the two return words of the depth-3 prefix are exactly the images of
# the two letters under the composed substitution tower
row = table[2]
v, u = kappa_images(parse_kappa("r1,g1"))
print("\nreturn words of %r : %s" % (row.prefix, sorted(row.words)))
print("tower images        : %s" % sorted([v, u]))

# Thue-Morse is not Sturmian: four return words instead of two
tm = get_preset("thue-morse")
row = return_table(tm, 2, 65536)[-1]
print("\nthue-morse %r returns: %s" % (row.prefix, sorted(row.words)))
