"""Random base points and tangent vectors as objects, and `promote`, for
the tests.

random_point normalizes a Gaussian 4-vector per factor with
Quaternion.normalized; random_tangent draws uniform (alpha, beta) components.
One random_point and two random_tangent calls read the rng stream that
nkgeom.random_samples reads for one sample.
"""

import numpy as np

from nkverify.nkgeom import PointS3S3, TangentVector
from nkverify.quat import ImaginaryQuaternion, Quaternion


def promote(a: ImaginaryQuaternion) -> Quaternion:
    """The imaginary quaternion a viewed as a general quaternion."""
    return Quaternion(0.0, a.x, a.y, a.z)


def random_point(rng: np.random.Generator) -> PointS3S3:
    """A uniformly distributed point of S3 x S3."""
    arrs = rng.standard_normal((2, 4))
    return PointS3S3(
        Quaternion.from_array(arrs[0]).normalized(),
        Quaternion.from_array(arrs[1]).normalized(),
    )


def random_tangent(rng: np.random.Generator, base: PointS3S3) -> TangentVector:
    """A tangent vector at base with components uniform in [-1, 1]."""
    comps = rng.uniform(-1.0, 1.0, 6)
    return TangentVector(
        base,
        ImaginaryQuaternion.from_array(comps[:3]),
        ImaginaryQuaternion.from_array(comps[3:]),
    )
