"""Hash what ``solve()`` returns on a fixed set of 340,000 polynomials.

Usage, from the repository root::

    python tests/identity_sha256.py          # print the sha256
    python tests/identity_sha256.py --check  # exit 1 unless it is EXPECTED

A change that keeps every ``solve()`` result bit for bit keeps the hash.  A
change that moves results on purpose records its new hash in ``EXPECTED``
and says so, as it does for the CLI goldens.  The hash is the same on
Python 3.10 to 3.13.

Each polynomial adds one line, ``repr(solve(RealPolynomial(c)))``, or
``Type: text`` for whatever the constructor or the solver raises.  The
polynomials, in this order:

* ``perfbench/corpus.py``'s ``uniform`` and then ``wide``, 1000 per degree,
  for seeds 1-10 and then 201-220 (180,000);
* 100,000 fuzzed polynomials of degree 1-4 from ``random.Random(20261020)``:
  the degree from ``randint(1, 4)``, then per coefficient a zero with
  probability 0.2 (``random() < 0.2``), a sign (``choice``) and, unless
  zero, a magnitude ``10**u`` with ``u`` uniform in [-300, 300];
* 60,000 cubics and quartics, alternating, from ``random.Random(20261021)``:
  real roots and conjugate pairs of modulus ``10**u``, ``u`` uniform in
  [-40, 40], expanded in complex arithmetic times a leading coefficient of
  modulus ``10**u``, ``u`` uniform in [-3, 3].
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import math
import pathlib
import random
import sys

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]
import corpus  # noqa: E402

from splitroots import RealPolynomial, solve  # noqa: E402

EXPECTED = "0b531d438c9d9ea8be18d648d8d267486eb9bcf9be6c9cb3753d377ec3b96268"


def _fuzzed(rng: random.Random) -> list[float]:
    coeffs = []
    for _ in range(rng.randint(1, 4) + 1):
        zero = rng.random() < 0.2
        sign = rng.choice((-1.0, 1.0))
        coeffs.append(sign * (0.0 if zero else 10.0 ** rng.uniform(-300.0, 300.0)))
    return coeffs


def _wide_roots(rng: random.Random, degree: int) -> list[float]:
    def modulus():
        return 10.0 ** rng.uniform(-40.0, 40.0)

    roots = []
    while len(roots) < degree:
        if len(roots) <= degree - 2 and rng.random() < 0.5:
            z = cmath.rect(modulus(), rng.uniform(0.0, math.pi))
            roots += [z, z.conjugate()]
        else:
            roots.append(complex(rng.choice((-1.0, 1.0)) * modulus(), 0.0))
    coeffs = [complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0), 0.0)]
    for r in roots:
        coeffs = [0j, *coeffs]
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return [c.real for c in coeffs]


def polynomials():
    """Every polynomial of the set as its coefficients, lowest power first."""
    for seed in (*range(1, 11), *range(201, 221)):
        yield from corpus.uniform(seed, 1000)
        yield from corpus.wide(seed, 1000)
    rng = random.Random(20261020)
    for _ in range(100_000):
        yield _fuzzed(rng)
    rng = random.Random(20261021)
    for k in range(60_000):
        yield _wide_roots(rng, 3 + k % 2)


def identity_sha256() -> str:
    digest = hashlib.sha256()
    for coeffs in polynomials():
        try:
            line = repr(solve(RealPolynomial(coeffs)))
        except Exception as err:
            line = f"{type(err).__name__}: {err}"
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="exit 1 unless the hash is EXPECTED")
    args = parser.parse_args(argv)
    sha = identity_sha256()
    print(sha)
    if args.check and sha != EXPECTED:
        print(f"identity hash differs from EXPECTED {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
