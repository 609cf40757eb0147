"""Verification engine for the homogeneous nearly Kahler S3 x S3.

The package re-derives and checks, in exact arithmetic where possible and in
controlled floating point elsewhere, the algebraic and differential identities
governing Lagrangian submanifolds of the nearly Kahler S3 x S3, including the
rigidity of H-umbilical Lagrangian immersions.
"""

__version__ = "0.1.0"
