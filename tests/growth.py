"""Empirical growth exponents, from the lines of the package a call executes.

A complexity claim is checked by counting, under ``sys.settrace``, the lines
of ``ribbonforge`` that one call executes at several input sizes, and
fitting the exponent between neighbouring sizes (Goldsmith, Aiken and
Wilkerson, *Measuring empirical computational complexity*, ESEC/FSE 2007,
which counted basic blocks).  A count is deterministic but depends on the
CPython version, so a test gates the exponent, never a count or a time.
"""

import math
import os
import sys

import ribbonforge

PACKAGE = os.path.dirname(ribbonforge.__file__) + os.sep


def executed_lines(fn, arg) -> int:
    """The lines of the package that ``fn(arg)`` executes."""
    count = 0

    def lines(frame, event, _):
        nonlocal count
        if event == "line":
            count += 1
        return lines

    def calls(frame, event, _):
        return lines if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(arg)
    finally:
        sys.settrace(previous)
    return count


def exponent(fn, make, sizes) -> float:
    """The largest exponent log(c₂ / c₁) / log(n₂ / n₁) between neighbouring
    sizes n₁ < n₂, where c is the line count of ``fn(make(n))``; the input
    is made outside the count."""
    return slope([executed_lines(fn, make(n)) for n in sizes], sizes)


def slope(counts, sizes) -> float:
    """The largest exponent log(c₂ / c₁) / log(n₂ / n₁) between neighbouring
    sizes n₁ < n₂ of the counts c."""
    return max(
        math.log(counts[i + 1] / counts[i]) / math.log(sizes[i + 1] / sizes[i])
        for i in range(len(sizes) - 1)
    )
