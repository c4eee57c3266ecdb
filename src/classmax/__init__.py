"""Class numbers of quadratic and cyclic cubic fields, genus theory, and
successive maxima of the normalized non-genus metric h / sqrt(D)^eps."""

import os

# classmax never calls BLAS, yet OpenBLAS starts a thread pool when numpy is
# imported, which adds to every run's start-up.  So one thread, set before
# any module below loads numpy, unless the caller chose a number.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arith import Factorization, factorize, is_squarefree, isqrt_exact, kronecker, omega, valuation
from .classnum import (
    QuadraticForm,
    class_number_imaginary,
    class_number_imaginary_oracle,
    narrow_class_number_real,
    reduced_indefinite_forms,
    rho_step,
)
from .cubic import CubicField, enumerate_cubic_fields, family_members
from .discriminants import QuadDiscriminant, is_cyclic_conductor, is_fundamental, iter_fundamental
from .genus import genus_number_cyclic, nongenus_part
from .maxima import BucketSpec, FieldRecord, MaximaEvent, merge_shards, scan
from .metric import Epsilon, MetricValue, c_eps, compare

__version__ = "0.1.0"

__all__ = [
    "BucketSpec",
    "CubicField",
    "Epsilon",
    "Factorization",
    "FieldRecord",
    "MaximaEvent",
    "MetricValue",
    "QuadDiscriminant",
    "QuadraticForm",
    "c_eps",
    "class_number_imaginary",
    "class_number_imaginary_oracle",
    "compare",
    "enumerate_cubic_fields",
    "factorize",
    "family_members",
    "genus_number_cyclic",
    "is_cyclic_conductor",
    "is_fundamental",
    "is_squarefree",
    "isqrt_exact",
    "iter_fundamental",
    "kronecker",
    "merge_shards",
    "narrow_class_number_real",
    "nongenus_part",
    "omega",
    "reduced_indefinite_forms",
    "rho_step",
    "scan",
    "valuation",
]
