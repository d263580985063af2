"""Invariants of surface links braided over the torus.

A surface link sitting in a tubular neighborhood of the standard torus in
four-space is described, when its chart has no branch points, by a pair of
commuting braids read along the two torus directions.  This package
computes algebraic invariants of such pairs: link-group presentations and
their abelianizations and finite quotients, quandle colorings and cocycle
state sums driven by movie decompositions, ribbon certificates via cable
decompositions, and the chart-level rotation and shear transforms.

The modules are the API, each public name in one of them: ``braids``,
``artin``, ``presentations``, ``movies``, ``quandles``, ``ribbon``,
``transforms``, ``errors`` and ``cli`` (``from torusbraid.braids import word``).
"""

__version__ = "0.1.0"
