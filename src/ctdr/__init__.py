"""Train one classifier on a labeled source and an unlabeled target domain.

The target side is driven by a prior-enforcing pseudo-labeling objective; an
optional adversarial term over fake samples regularizes the decision surface.
Everything runs on float64 with fully seeded randomness, so results reproduce
bit-for-bit.
"""

__version__ = "0.1.0"
