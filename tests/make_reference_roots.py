"""Write the reference roots that acceptance criterion 10 measures forward error against.

Usage, from the repository root::

    python tests/make_reference_roots.py tests/artifacts/reference_roots.json

This script is the repository's only mpmath user (written against mpmath
1.3.0); the tests read only the JSON it writes, one polynomial per line.
Each polynomial keeps its coefficients (lowest power first) and its roots as
``repr`` strings of doubles, and the number of digits its roots were
accepted at.

Corpora, 300 polynomials per degree 2-4 unless noted:

* ``lib-wide-201`` .. ``lib-wide-203``: the lib-wide benchmark inputs of
  those seeds (``perfbench/corpus.py``'s ``wide``);
* ``wide-roots``: roots log-uniform in 1e-60..1e60, each one a real root or
  a conjugate pair, drawn from seed 7; the monic coefficients are expanded
  exactly and rounded to doubles, so the reference roots are those of the
  rounded polynomial;
* ``extremes``: single inputs at the edges of the float range.

A root is accepted only when two precisions agree on it to 1e-20 relative:
the roots are found at 50 digits, then 400, then 800, doubling from there,
and the first two successive levels that agree give the higher one's roots.
A level that does not converge counts as a disagreement.  No polynomial is
dropped: one that never settles stops the script with an error.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import sys
from itertools import permutations

import mpmath

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

_SEED_WIDE_ROOTS = 7
_PER_DEGREE = 300
_DIGITS = (50, 400, 800, 1600, 3200)
_AGREEMENT = mpmath.mpf("1e-20")

# Lowest power first.
_EXTREMES = (
    (1.0, 1e160, 1.0),  # z^2 + 1e160 z + 1
    (1.0, 1.0, 1e-160),  # 1e-160 z^2 + z + 1
    (0.0, 1e200, 1.0),  # z^2 + 1e200 z
    (1e300, 1e300, 1e300, 1.0),  # z^3 + 1e300 z^2 + 1e300 z + 1e300
    (1.0, 0.0, 0.0, 1e155, 1.0),  # z^4 + 1e155 z^3 + 1
    (-1e-30, 0.0, 0.0, 1.0),  # z^3 - 1e-30
    (1e-20, 0.0, 1.0),  # z^2 + 1e-20
    (-1e-60, 0.0, 0.0, 0.0, 1.0),  # z^4 - 1e-60
    # a biquadratic swamped by its depression shift
    (1.64167775629069e99, 1.4568137151645082e90, 1.55997270297118e77, 7.815274112789742e38, 1.0),
    (1.0, 0.0, 0.0, 1e16, 1.0),  # z^4 + 1e16 z^3 + 1
)


def _times(a: list, b: list) -> list:
    """The product of two polynomials, coefficients highest power first."""
    out = [mpmath.mpf(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _wide_roots(seed: int, per_degree: int) -> list[tuple[float, ...]]:
    """Monic polynomials whose roots are log-uniform in 1e-60..1e60, interleaved by degree."""
    groups = []
    with mpmath.workprec(4000):  # every product below is exact at this precision
        for degree in corpus.DEGREES:
            rng = random.Random(f"{seed}-roots-{degree}")
            group = []
            for _ in range(per_degree):
                product = [mpmath.mpf(1)]  # highest power first
                left = degree
                while left:
                    modulus = 10.0 ** rng.uniform(-60.0, 60.0)
                    if left >= 2 and rng.random() < 0.5:
                        angle = rng.uniform(0.0, math.pi)
                        re, im = modulus * math.cos(angle), modulus * math.sin(angle)
                        factor = [1, -2 * mpmath.mpf(re), mpmath.mpf(re) ** 2 + mpmath.mpf(im) ** 2]
                        left -= 2
                    else:
                        factor = [1, -rng.choice((-1.0, 1.0)) * mpmath.mpf(modulus)]
                        left -= 1
                    product = _times(product, factor)
                group.append(tuple(float(c) for c in reversed(product)))
            groups.append(group)
    return corpus._interleave(groups)


def _roots_at(coeffs: tuple[float, ...], digits: int):
    """The roots of ``coeffs`` (degree >= 1, nonzero constant) at ``digits`` digits, or None."""
    # polyroots stops on an absolute step below 10**-digits, so the working
    # precision also covers the largest root's modulus (Fujiwara's bound).
    n = len(coeffs) - 1
    lead = abs(coeffs[-1])
    bound = 2 * max(abs(coeffs[n - k] / lead) ** (1.0 / k) for k in range(1, n + 1))
    extra = 10 + max(0, math.ceil(math.log2(bound)))
    with mpmath.workdps(digits):
        try:
            return mpmath.polyroots(coeffs[::-1], maxsteps=50 + 4 * digits, extraprec=extra)
        except mpmath.libmp.NoConvergence:
            return None


def _agree(low, high) -> bool:
    """Whether some matching puts every root of ``high`` within 1e-20 relative of one of ``low``."""
    if low is None or high is None:
        return False
    return any(
        all(abs(low[j] - h) <= _AGREEMENT * abs(h) for h, j in zip(high, perm))
        for perm in permutations(range(len(high)))
    )


def _reference(coeffs: tuple[float, ...]) -> dict:
    zeros = 0
    while coeffs[zeros] == 0.0:  # exact zero roots, split off
        zeros += 1
    rest = coeffs[zeros:]
    previous = None
    for digits in _DIGITS:
        current = _roots_at(rest, digits)
        if _agree(previous, current):
            roots = current
            break
        previous = current
    else:
        raise SystemExit(f"no two precisions agree on the roots of {coeffs}")
    roots = [complex(float(mpmath.re(z)), float(mpmath.im(z))) for z in roots] + [0j] * zeros
    return {
        "coefficients": [repr(c) for c in coeffs],
        "roots": [repr(z) for z in sorted(roots, key=lambda z: (z.real, z.imag))],
        "digits": digits,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: python tests/make_reference_roots.py OUTPUT")
    corpora = {f"lib-wide-{seed}": corpus.wide(seed, _PER_DEGREE) for seed in (201, 202, 203)}
    corpora["wide-roots"] = _wide_roots(_SEED_WIDE_ROOTS, _PER_DEGREE)
    corpora["extremes"] = list(_EXTREMES)
    lines = ["{", f' "mpmath": {json.dumps(mpmath.__version__)},', ' "corpora": {']
    for k, (name, polys) in enumerate(corpora.items()):
        entries = [json.dumps(_reference(c)) for c in polys]
        close = "\n  ]" + ("," if k < len(corpora) - 1 else "")
        lines.append(f"  {json.dumps(name)}: [\n   " + ",\n   ".join(entries) + close)
    lines += [" }", "}"]
    pathlib.Path(argv[1]).write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
