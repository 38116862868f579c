"""mixamp: 2D sparse-mixture separation from compressed measurements.

A signal X = Xa + Xb is observed through Y = P_Omega{A X A^T}; the two
components are recovered jointly by a dual-denoiser approximate
message-passing iteration (`solver`), with a proximal-gradient
comparator (`baseline`), pluggable denoisers (`denoise`), the
measurement model (`linops`), and phantoms/metrics/IO (`data`).
"""

from .baseline import BaselineConfig, baseline_solve, estimate_lipschitz, objective_eval
from .data import (
    PhantomSpec,
    gen_cartoon,
    gen_group_sparse,
    gen_shot_noise,
    load_image_pgm,
    make_mixture,
    psnr,
    save_image_pgm,
    write_metrics_csv,
)
from .denoise import (
    DenoiseOutput,
    DenoiserSpec,
    TvState,
    block_soft_threshold,
    mc_divergence,
    soft_threshold,
    soft_threshold_div,
    threshold_from_theta,
    tv_denoise_bregman,
    tv_norm,
    tv_objective,
)
from .exceptions import (
    DegenerateProblemError,
    DimensionError,
    DomainError,
    ImageFormatError,
    MixAmpError,
    OracleScaleError,
    SolverDivergenceError,
    SolverError,
    UnsupportedSizeError,
)
from .linops import (
    MeasurementOperator,
    SamplingMask,
    SensingMatrix,
    adjoint,
    dct_fast_adjoint,
    dct_fast_forward,
    dct_sensing,
    forward,
    full_mask,
    gen_gaussian_sensing,
    gen_mask,
    identity_sensing,
    kron_forward_oracle,
    mask_apply,
)
from .solver import (
    IterationTrace,
    MixAmpConfig,
    MixAmpState,
    apply_denoiser,
    mixamp_init,
    mixamp_run,
    mixamp_step,
    normalize_problem,
    stopping_tol,
)

__version__ = "0.1.0"
