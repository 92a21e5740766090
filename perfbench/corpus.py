"""Seeded inputs for the benchmark workloads.

Every input is a tuple of real coefficients, lowest power first, and the
degrees 2, 3 and 4 are interleaved so that a slow stretch of the machine
hits all of them alike.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal

DEGREES = (2, 3, 4)


def _interleave(per_degree: list[list[tuple[float, ...]]]) -> list[tuple[float, ...]]:
    return [coeffs for group in zip(*per_degree) for coeffs in group]


def uniform(seed: int, per_degree: int) -> list[tuple[float, ...]]:
    """Monic, other coefficients uniform in [-10, 10].

    This is the generation scheme of ``splitroots bench``: one
    ``random.Random(f"{seed}-{degree}")`` stream per degree.
    """
    groups = []
    for degree in DEGREES:
        rng = random.Random(f"{seed}-{degree}")
        groups.append(
            [tuple(rng.uniform(-10.0, 10.0) for _ in range(degree)) + (1.0,) for _ in range(per_degree)]
        )
    return _interleave(groups)


def wide(seed: int, per_degree: int) -> list[tuple[float, ...]]:
    """Every coefficient, the leading one included, is +-10**u with u uniform in [-6, 6]."""
    groups = []
    for degree in DEGREES:
        rng = random.Random(f"{seed}-wide-{degree}")
        groups.append(
            [
                tuple(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 6.0) for _ in range(degree + 1))
                for _ in range(per_degree)
            ]
        )
    return _interleave(groups)


def _decimal(value: float) -> str:
    # The expression grammar has no exponent notation; this plain decimal
    # parses back to exactly ``value``.
    return format(Decimal(repr(value)), "f")


def expression(coeffs: tuple[float, ...]) -> str:
    """``coeffs`` as one line of CLI input, highest power first."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0.0:
            continue
        magnitude = "" if abs(c) == 1.0 and k > 0 else _decimal(abs(c))
        power = "" if k == 0 else "z" if k == 1 else f"z^{k}"
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {magnitude}{power}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def write_jsonl(path, corpus: list[tuple[float, ...]]) -> None:
    with open(path, "w") as f:
        for coeffs in corpus:
            f.write(json.dumps(coeffs) + "\n")


def read_jsonl(path) -> list[tuple[float, ...]]:
    with open(path) as f:
        return [tuple(json.loads(line)) for line in f]


def write_lines(path, corpus: list[tuple[float, ...]]) -> None:
    with open(path, "w") as f:
        for coeffs in corpus:
            f.write(expression(coeffs) + "\n")
