"""Names of the two scalar rings an exact model is built over.

``RATIONAL`` is the split real form over Q.  ``GAUSSIAN`` is the complexified
algebra over Q(i), which ``chevalley`` realifies: its real basis doubles the
split one by the i-keys, and every coefficient stays a Fraction.
"""

RATIONAL = "rational"
GAUSSIAN = "gaussian"
