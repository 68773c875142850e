"""Gaussian random fields via white-noise factorization of the covariance.

The toolkit discretizes a compact measure space as a quadrature rule,
eigendecomposes covariance operators over it, factors them into
white-noise kernels (unique up to an orthogonal gauge), samples fields
from the associated series, and integrates deterministic and random
integrands against the field with exactly checkable duality.
"""

from .chaos import (
    ChaosPolynomial,
    HmuValuedPolynomial,
    directional_derivative,
    expectation,
    format_polynomial,
    inner_hmu,
    malliavin_derivative,
    parse_polynomial,
    random_polynomial,
)
from .errors import (
    DimensionMismatchError,
    InsufficientSamplesError,
    InvalidParameterError,
    NotInRkhsError,
    NotPositiveSemidefiniteError,
    NumericError,
    UnknownKernelError,
)
from .field import (
    GaussianField,
    SampleBatch,
    build_field,
    covariance_standard_error,
    empirical_covariance,
    mollify_factor,
    noise_blocks,
    noise_gram,
    noise_matrix,
    sample,
    tangent_gram,
    truncation_error,
)
from .integrals import (
    RandomIntegrand,
    deterministic_integrand,
    duality_check,
    skorokhod_integral,
    transfer,
    wiener_integral,
)
from .kernels import (
    CovarianceKernel,
    assemble,
    builtin_kernel,
    builtin_kernel_names,
    matrix_kernel,
    trace_of_operator,
)
from .spaces import DiscreteMeasureSpace, interval_grid
from .spectral import (
    GAUGES,
    MercerDecomposition,
    RkhsElement,
    WhiteNoiseKernel,
    decompose,
    factorize,
    kernel_section,
    pointwise_kernel_matrix,
    reproduce_covariance,
    rkhs_inner,
    to_rkhs,
)

__version__ = "0.1.0"
