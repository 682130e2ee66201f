"""Check-digit oracles for the verdicts the benchmark reads back.

Written from the published check-digit arithmetic and kept apart from the
engine's own oracle module, so a bug shared by the two cannot hide. Each
function returns the text the shipped workbook formulas must produce,
including their documented quirk: in the mod-11 family (ISBN-10, ISSN) a
candidate whose true check digit is 0 reads ``invalid``, because the
expected MATCH position 12 lies outside the 11-entry lookup array.
"""

from __future__ import annotations

import random


def _mod11_check(digits: str) -> int:
    """True mod-11 check value (10 means X) for the leading digits."""
    top = len(digits) + 1
    total = sum((top - i) * int(d) for i, d in enumerate(digits))
    return (11 - total % 11) % 11


def _mod11_verdict(candidate: str, n_digits: int) -> str:
    if len(candidate) != n_digits + 1 or not candidate[:n_digits].isdigit():
        raise ValueError(f"malformed candidate {candidate!r}")
    check = _mod11_check(candidate[:n_digits])
    last = candidate[-1]
    given = 10 if last == "X" else int(last)
    return "valid" if check != 0 and given == check else "invalid"


def isbn10_verdict(candidate: str) -> str:
    return _mod11_verdict(candidate, 9)


def issn_verdict(candidate: str) -> str:
    return _mod11_verdict(candidate, 7)


def isbn13_check(digits: str) -> int:
    total = sum(int(d) * (1 if i % 2 == 0 else 3) for i, d in enumerate(digits))
    return (10 - total % 10) % 10


def isbn13_verdict(candidate: str) -> str:
    if len(candidate) != 13 or not candidate.isdigit():
        raise ValueError(f"malformed candidate {candidate!r}")
    return "valid" if isbn13_check(candidate[:12]) == int(candidate[12]) else "invalid"


def verdict(candidate: str) -> str:
    """Verdict of the row formula IF(LEN(A)=10, ISBN-10, ISBN-13)."""
    return isbn10_verdict(candidate) if len(candidate) == 10 else isbn13_verdict(candidate)


def _mod11_candidate(rng: random.Random, n_digits: int) -> str:
    digits = "".join(rng.choice("0123456789") for _ in range(n_digits))
    check = _mod11_check(digits)
    char = "X" if check == 10 else str(check)
    if rng.random() < 0.5:
        return digits + char
    return digits + rng.choice([c for c in "0123456789X" if c != char])


def isbn10_candidate(rng: random.Random) -> str:
    """A 10-character candidate, valid about half the time."""
    return _mod11_candidate(rng, 9)


def issn_candidate(rng: random.Random) -> str:
    """An 8-character hyphen-free candidate, valid about half the time."""
    return _mod11_candidate(rng, 7)


def isbn13_candidate(rng: random.Random) -> str:
    """A 13-digit candidate, valid about half the time."""
    digits = "978" + "".join(rng.choice("0123456789") for _ in range(9))
    check = isbn13_check(digits)
    if rng.random() < 0.5:
        return digits + str(check)
    return digits + rng.choice([c for c in "0123456789" if c != str(check)])
