"""``spectral_gap``'s float ``lambda_1`` against the known integer gaps of five families.

The second-smallest Laplacian eigenvalue of these distance-regular graphs is
an integer (Brouwer, Cohen and Neumaier, *Distance-Regular Graphs*, 1989):
2 on the hypercube, n on the Johnson graph J(n, k) and on the complete graph
K_n, ``2m - 2`` on the cocktail party graph of m pairs and ``2(n - 1)`` on
the demi-cube of dimension n. This makes an oracle at every size.
"""

from math import comb

import pytest

from eqcurv import generate, parse_family_spec, spectral_gap

# J(n, 1) is K_n and J(n, k) is J(n, n - k), so k runs from 2 to n/2
CASES = [
    *((f"hypercube:{d}", 2) for d in range(2, 10)),
    *((f"johnson:{n},{k}", n) for n in range(4, 33) for k in range(2, n // 2 + 1) if comb(n, k) <= 500),
    *((f"complete:{n}", n) for n in (2, 3, 10, 100, 300)),
    *((f"cocktail_party:{m}", 2 * m - 2) for m in (2, 3, 10, 50, 150)),
    *((f"demicube:{n}", 2 * (n - 1)) for n in range(3, 10)),
]


@pytest.mark.parametrize("text, gap", CASES, ids=[text for text, _ in CASES])
def test_lambda1_is_the_known_integer(text, gap):
    assert spectral_gap(generate(parse_family_spec(text))).lambda1 == pytest.approx(gap, rel=1e-9, abs=0)
