"""
How repetitive can these words get?
===================================

The Thue-Morse word famously contains squares (like 0110 0110) but no
fractional power above exponent 2.  Sturmian words are the opposite
extreme: bounded continued-fraction digits still allow powers above 3.
"""

from subrec import max_power_witness, power_report
from subrec.presets import get_preset

rep = power_report(get_preset("thue-morse"), 4096)
print("thue-morse window      :", rep.analyzed_length)
print("thue-morse max exponent:", rep.exponent)
print("witness                : %r at position %d" % (rep.factor, rep.position))

rep = power_report(get_preset("fibonacci"), 4096)
print("\nfibonacci max exponent :", rep.exponent, "=", float(rep.exponent))
print("witness base length    :", len(rep.base))

# the witness finder works on any plain string too
for text in ("ababab", "0100101001001"):
    w = max_power_witness(text)
    print("\n%s: exponent %s, base %r, position %d" % (text, w.exponent, w.base, w.position))
    print("reconstructed witness: %r" % w.factor)
